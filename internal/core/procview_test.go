package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/kernel"
)

var updateProcView = flag.Bool("update-procview", false, "rewrite testdata/procview.golden from this tree")

// procViewProgram prints what a guest sees of /proc: the stat of the
// directory and of its four pseudo files, then the getdents listing.
func procViewProgram(p *guest.Proc) int {
	for _, path := range []string{"/proc", "/proc/cpuinfo", "/proc/uptime", "/proc/meminfo", "/proc/version"} {
		st, err := p.Stat(path)
		p.Printf("%s err=%v ino=%d mode=%o nlink=%d atime=%v mtime=%v ctime=%v\n",
			path, err, st.Ino, st.Mode, st.Nlink, st.Atime, st.Mtime, st.Ctime)
	}
	ents, err := p.ReadDir("/proc")
	p.Printf("getdents err=%v:", err)
	for _, e := range ents {
		p.Printf(" %s:%d:%o", e.Name, e.Ino, e.Type)
	}
	p.Printf("\n")
	return 0
}

// procViewText runs procViewProgram on the native kernel and under DetTrace,
// each from a freshly prepared image (cold) and from one prepared image
// shared by every run (fork), under two host seeds, and renders each run's
// output and result image hash.
func procViewText(t *testing.T) string {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("main", procViewProgram)
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	seeds := []uint64{0xAAAA, 0xB0B0}
	const epoch, deadline = 1_520_000_000, 3_600_000_000_000
	var b strings.Builder

	kcfg := kernel.Config{Profile: hostA.profile, Image: img, Resolver: reg.Resolver()}
	shared := kernel.Prepare(kcfg)
	native := func(snap *kernel.Snapshot, seed uint64) string {
		k := snap.Boot(kernel.BootConfig{Seed: seed, Epoch: epoch, Deadline: deadline})
		execImg := &kernel.ExecImage{Path: "/bin/main", Argv: []string{"main"}}
		k.Start(reg.Bind(procViewProgram, execImg), execImg.Argv, []string{"PATH=/bin"})
		if err := k.Run(); err != nil {
			t.Fatalf("native run: %v", err)
		}
		return fmt.Sprintf("%shash=%016x\n", k.Console.Stdout(), k.FS.SnapshotImage(k.FS.Root).Hash())
	}

	cfg := core.Config{Image: img, Profile: hostA.profile, Epoch: epoch, Deadline: deadline}
	tp := core.NewTemplate(cfg)
	dettrace := func(c *core.Container) string {
		res := c.Run(reg, "/bin/main", []string{"main"}, []string{"PATH=/bin"})
		if res.Err != nil || res.ExitCode != 0 {
			t.Fatalf("dettrace run: exit %d err %v, stderr %q", res.ExitCode, res.Err, res.Stderr)
		}
		return fmt.Sprintf("%shash=%016x\n", res.Stdout, res.FS.Hash())
	}

	for _, seed := range seeds {
		fmt.Fprintf(&b, "== native cold seed=%#x\n%s", seed, native(kernel.Prepare(kcfg), seed))
		fmt.Fprintf(&b, "== native fork seed=%#x\n%s", seed, native(shared, seed))
		c := cfg
		c.HostSeed = seed
		fmt.Fprintf(&b, "== dettrace cold seed=%#x\n%s", seed, dettrace(core.New(c)))
		fmt.Fprintf(&b, "== dettrace fork seed=%#x\n%s", seed, dettrace(tp.NewContainer(core.HostRun{Seed: seed, Epoch: epoch})))
	}
	return b.String()
}

// TestProcViewGolden pins the guest-visible view of /proc — inode numbers,
// modes, link counts, timestamps, listing order — and the result image hash
// on cold and forked boots, natively and under DetTrace, to a golden
// recorded before the /proc inodes moved from every boot into the prepared
// image. Regenerate with -update-procview only when that view is meant to
// change.
func TestProcViewGolden(t *testing.T) {
	got := procViewText(t)
	path := filepath.Join("testdata", "procview.golden")
	if *updateProcView {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the /proc view moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
