// Package repro is DetTrace for Go: a reproducible container abstraction in
// which all computation is a pure function of the container's inputs — the
// initial filesystem image, the entry command and environment, and a PRNG
// seed. It reproduces the system described in "Reproducible Containers"
// (ASPLOS 2020) on top of a deterministic user-space Linux simulation.
//
// # Quick start
//
//	reg := repro.NewRegistry()
//	reg.Register("hello", func(p *repro.GuestProc) int {
//	    p.Printf("the time is %d\n", p.Time())
//	    return 0
//	})
//	img := repro.MinimalImage()
//	img.AddFile("/bin/hello", 0o755, repro.MakeExe("hello", nil))
//
//	c := repro.New(repro.Config{Image: img, HostSeed: 42})
//	res := c.Run(reg, "/bin/hello", []string{"hello"}, nil)
//	fmt.Print(res.Stdout) // identical for every HostSeed, every machine
//
// The package is a facade over the internal packages; see DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper reproduction results.
package repro

import (
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/diffoscope"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Core container types.
type (
	// Container is a reproducible container: it encapsulates a process tree
	// and forces every observable result to be a pure function of the
	// container's inputs.
	Container = core.Container
	// Config describes a container: the [input] fields are the
	// reproducibility contract; the [host] fields must not affect output.
	Config = core.Config
	// Result captures a finished run: exit code, output streams, final
	// filesystem state and tracer statistics.
	Result = core.Result
	// UnsupportedError is the reproducible container-level error raised for
	// operations DetTrace does not support (sockets, cross-process signals,
	// busy-waiting, exotic system calls).
	UnsupportedError = core.UnsupportedError
	// Download declares one checksummed external file a container may fetch.
	Download = core.Download
	// Template is a prepared container — image populated and frozen — from
	// which NewContainer forks containers bitwise identical to cold-built
	// ones at a fraction of the setup cost.
	Template = core.Template
	// HostRun names the physical run a forked container executes as: the
	// [host] Config fields a template deliberately does not bake in.
	HostRun = core.HostRun
)

// Guest programming types.
type (
	// Registry maps program names to guest programs; execve resolves
	// container binaries against it.
	Registry = guest.Registry
	// Program is a guest executable body.
	Program = guest.Program
	// GuestProc is a guest program's process handle: typed system call
	// wrappers over the container ABI.
	GuestProc = guest.Proc
)

// Filesystem and machine types.
type (
	// Image is a portable description of an initial filesystem state.
	Image = fs.Image
	// MachineProfile describes the host hardware/OS a container runs on;
	// its details must never leak into container output.
	MachineProfile = machine.Profile
)

// New assembles a container from its configuration.
func New(cfg Config) *Container { return core.New(cfg) }

// NewTemplate prepares a reusable container template: the expensive,
// run-independent half of New done once, so each Template.NewContainer
// fork pays only per-run setup.
func NewTemplate(cfg Config) *Template { return core.NewTemplate(cfg) }

// NewRegistry returns an empty guest program registry.
func NewRegistry() *Registry { return guest.NewRegistry() }

// NewImage returns an empty filesystem image.
func NewImage() *Image { return fs.NewImage() }

// MinimalImage returns the smallest useful container image: directory
// skeleton plus /dev nodes.
func MinimalImage() *Image { return baseimg.Minimal() }

// ToolchainImage returns MinimalImage plus the simulated build toolchain
// under /bin (cc, ld, make, tar, dpkg-buildpackage, ...).
func ToolchainImage() *Image { return baseimg.WithBinaries(workload.Names...) }

// RegisterToolchain installs the simulated build toolchain programs into a
// registry; pair it with ToolchainImage.
func RegisterToolchain(reg *Registry) { workload.Register(reg) }

// MakeExe builds an executable file image resolving to a registered program.
func MakeExe(program string, payload []byte) []byte {
	return guest.MakeExe(program, payload)
}

// Machine profiles from the paper's evaluation (§6).
var (
	// CloudLabC220G5 is the package-build machine: Skylake, Linux 4.15.
	CloudLabC220G5 = machine.CloudLabC220G5
	// BioHaswell is the bioinformatics/ML machine: Haswell, Linux 4.18.
	BioHaswell = machine.BioHaswell
	// PortabilityBroadwell is the second §7.3 portability machine.
	PortabilityBroadwell = machine.PortabilityBroadwell
	// LegacySandyBridge lacks cpuid faulting and the combined seccomp stop:
	// DetTrace still runs, with a smaller portability guarantee (§5.8).
	LegacySandyBridge = machine.LegacySandyBridge
)

// HashImage computes a hashdeep-style content report over an image; two runs
// are reproducible iff their reports are Equal.
func HashImage(im *Image) string { return hashdeep.Hash(im).Total() }

// CompareImages bitwise-compares two filesystem states the way diffoscope
// adjudicates reproducibility, returning human-readable differences.
func CompareImages(a, b *Image) []string {
	var out []string
	for _, d := range diffoscope.Compare(a, b) {
		out = append(out, d.String())
	}
	return out
}
