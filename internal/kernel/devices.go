package kernel

import (
	"fmt"
	"strings"

	"repro/internal/abi"
	"repro/internal/fs"
)

// nullDevice is /dev/null: reads return EOF, writes disappear.
type nullDevice struct{}

func (nullDevice) ReadDev(p []byte) int  { return 0 }
func (nullDevice) WriteDev(p []byte) int { return len(p) }

// zeroDevice is /dev/zero.
type zeroDevice struct{}

func (zeroDevice) ReadDev(p []byte) int {
	for i := range p {
		p[i] = 0
	}
	return len(p)
}
func (zeroDevice) WriteDev(p []byte) int { return len(p) }

// entropyDevice is the host's /dev/urandom and /dev/random: true hardware
// entropy, the canonical source of irreproducibility (§5.2). DetTrace
// replaces this device with its seeded LFSR.
type entropyDevice struct{ k *Kernel }

func (d entropyDevice) ReadDev(p []byte) int {
	d.k.HW.Entropy.Fill(p)
	return len(p)
}
func (d entropyDevice) WriteDev(p []byte) int { return len(p) }

// FillFunc adapts a fill function into a Device; DetTrace uses it to mount
// PRNG-backed replacements for the entropy devices.
type FillFunc func(p []byte)

// ReadDev fills p via the function.
func (f FillFunc) ReadDev(p []byte) int { f(p); return len(p) }

// WriteDev discards writes.
func (f FillFunc) WriteDev(p []byte) int { return len(p) }

// textFile is a read-only pseudo file whose content is generated at open
// time — how /proc behaves.
type textFile struct {
	data []byte
	off  int
}

func (f *textFile) ReadDev(p []byte) int {
	n := copy(p, f.data[f.off:])
	f.off += n
	return n
}
func (f *textFile) WriteDev(p []byte) int { return len(p) }

// TextFile wraps a content generator into a device constructor; each open
// snapshots fresh content.
func TextFile(gen func() string) func() fs.Device {
	return func() fs.Device { return &textFile{data: []byte(gen())} }
}

func (k *Kernel) registerStandardDevices() {
	k.RegisterDevice("null", func() fs.Device { return nullDevice{} })
	k.RegisterDevice("zero", func() fs.Device { return zeroDevice{} })
	k.RegisterDevice("urandom", func() fs.Device { return entropyDevice{k} })
	k.RegisterDevice("random", func() fs.Device { return entropyDevice{k} })

	// The /proc files the paper's builds actually read. Each leaks host
	// identity: cpuinfo the microarchitecture and core count, uptime the
	// boot moment, meminfo the RAM size, version the kernel build.
	k.RegisterDevice("proc:cpuinfo", TextFile(func() string {
		var b strings.Builder
		for i := 0; i < len(k.cores); i++ {
			fmt.Fprintf(&b, "processor\t: %d\nmodel name\t: %s\nflags\t\t: fpu sse2%s%s\n\n",
				i, k.Profile.CPUModel, flagIf(k.Profile.HasRDRAND, " rdrand"), flagIf(k.Profile.HasTSX, " rtm hle"))
		}
		return b.String()
	}))
	k.RegisterDevice("proc:uptime", TextFile(func() string {
		return fmt.Sprintf("%d.%02d %d.%02d\n", k.now/1e9, k.now%1e9/1e7, k.now/1e9, k.now%1e9/1e7)
	}))
	k.RegisterDevice("proc:meminfo", TextFile(func() string {
		return fmt.Sprintf("MemTotal:       %d kB\nMemFree:        %d kB\n",
			k.Profile.RAMMB*1024, k.Profile.RAMMB*512)
	}))
	k.RegisterDevice("proc:version", TextFile(func() string {
		return fmt.Sprintf("Linux version %s (buildd@%s) %s\n",
			k.Profile.KernelRelease, k.Profile.Hostname, k.Profile.KernelVersion)
	}))
}

func flagIf(b bool, s string) string {
	if b {
		return s
	}
	return ""
}

// populateProc mounts the pseudo files under /proc when the image has one.
// Prepare calls it on the filesystem it is about to freeze, so every boot
// forks them with the rest of the image; the kernel resolves their DevIDs
// at open time, so each boot still reads its own host.
func populateProc(f *fs.FS) {
	ctx := fs.LookupCtx{Root: f.Root, Cwd: f.Root}
	dir, err := f.Resolve(ctx, "/proc", true)
	if err != abi.OK || !dir.IsDir() {
		return
	}
	f.Mkdevs(dir, procFiles[:], procDevIDs[:])
}

// procFiles are the /proc pseudo files, in creation order, and procDevIDs
// their device IDs.
var (
	procFiles  = [...]string{"cpuinfo", "uptime", "meminfo", "version"}
	procDevIDs = [...]string{"proc:cpuinfo", "proc:uptime", "proc:meminfo", "proc:version"}
)
