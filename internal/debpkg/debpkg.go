// Package debpkg generates the synthetic Debian Wheezy package universe the
// evaluation builds: 17,145 packages whose *characteristics* — compile
// units, nondeterminism directives, threading style, socket/signal use,
// build duration, system call intensity — are sampled from a seeded
// generator calibrated so the population's measured outcomes land on the
// paper's Table 1 marginals.
//
// The generator assigns characteristics, never verdicts: whether a package
// is reproducible is decided downstream by actually building it twice under
// reprotest perturbations and bitwise-comparing the .debs (internal/buildsim).
package debpkg

import (
	"fmt"

	"repro/internal/prng"
)

// Class is the expected outcome cell a package was calibrated for. It is
// carried along for validation only — buildsim measures the real outcome
// and the Table-1 test asserts that measurement matches calibration.
type Class int

// Calibration cells, named after Table 1's rows and columns.
const (
	BLFail Class = iota // fails to build natively
	BLTimeoutC
	BLRepro_DTRepro
	BLRepro_DTUnsup
	BLRepro_DTTimeout
	BLIrrepro_DTRepro
	BLIrrepro_DTUnsup
	BLIrrepro_DTTimeout
)

var classNames = map[Class]string{
	BLFail: "bl-fail", BLTimeoutC: "bl-timeout",
	BLRepro_DTRepro: "blR-dtR", BLRepro_DTUnsup: "blR-dtU", BLRepro_DTTimeout: "blR-dtT",
	BLIrrepro_DTRepro: "blI-dtR", BLIrrepro_DTUnsup: "blI-dtU", BLIrrepro_DTTimeout: "blI-dtT",
}

// String names the calibration cell.
func (c Class) String() string { return classNames[c] }

// UnsupportedKind is the §7.1.1 failure class of a DT-unsupported package.
type UnsupportedKind string

// Unsupported-operation kinds.
const (
	UnsupNone     UnsupportedKind = ""
	UnsupBusyWait UnsupportedKind = "busy-wait"
	UnsupSocket   UnsupportedKind = "socket"
	UnsupSignal   UnsupportedKind = "signal"
	UnsupMisc     UnsupportedKind = "misc-syscall"
)

// Spec is one generated package.
type Spec struct {
	Name    string
	Version string
	Class   Class

	Units      int   // compile units
	UnitKB     int   // source size per unit
	Headers    int   // include probes per unit (syscall intensity)
	Weight     int64 // events-per-event scale factor
	ComputeFct int64 // per-byte compute multiplier (build heaviness)

	Compiler string // "cc" or "javac"
	Threads  string // javac: "futex" or "busywait"

	// Directives are run-varying irreproducibility sources embedded in the
	// sources; PortDirectives vary across machines but not across runs on
	// one machine.
	Directives     []string
	PortDirectives []string

	Unsup UnsupportedKind

	LogArtifact  bool // ship the parallel-make build log (race capture)
	ShipConfigH  bool // ship configure output
	BrokenSource bool // unit 0 fails to compile
	UsesIoctl    bool // build probes the terminal (isatty) — rr's crash

	Tests [3]int // tests, xfail, unsupported (the llvm self-host shape)
}

// DirectiveUniverse lists every run-varying directive the generator draws
// from, roughly ordered by how often DRB's notes blame each cause.
var DirectiveUniverse = []string{
	"timestamp", "timestamp", "timestamp", // timestamps dominate
	"buildpath", "buildpath",
	"random", "getrandom",
	"env:USER", "env:HOME", "env:DEB_BUILD_OPTIONS",
	"pid", "mtime:debian/control", "inode:debian/control",
	"mmap", "cores", "rdtsc", "timestamp-vdso", "cpuinfo", "uptime",
}

// PortDirectiveUniverse lists machine-varying (but run-stable) sources.
var PortDirectiveUniverse = []string{
	"hostname", "kernel", "readdir:src", "dirsize:src",
}

// UniverseSize is the full Wheezy package count from §6.
const UniverseSize = 17145

// Counts from Table 1 (top) and §6.1, used as calibration targets.
const (
	NBLFail         = 1344
	NBLTimeout      = 40
	NBLReproDTRepro = 3442
	NBLReproDTUnsup = 137
	NBLReproDTTime  = 224
	NBLIrrDTRepro   = 8688
	NBLIrrDTUnsup   = 1912
	NBLIrrDTTime    = 1358
	NBusyWait       = 876
	NSocket         = 302
	NSignal         = 79
)

// LLVM returns the hand-built llvm-3.0 package of the §7.2 self-hosting
// experiment: a large build whose binary carries the real test-suite shape
// (5,594 passes, 48 expected failures, 15 unsupported).
func LLVM() *Spec {
	return &Spec{
		Name: "llvm", Version: "3.0-1", Class: BLIrrepro_DTRepro,
		Units: 40, UnitKB: 6, Headers: 60, Weight: 400, ComputeFct: 12,
		Compiler:   "cc",
		Directives: []string{"timestamp", "buildpath", "random"},
		Tests:      [3]int{5657, 48, 15},
	}
}

// ModernSample generates the §7.1.3 comparison set: 81 packages that build
// from source on a modern distribution, 46 of which probe the terminal with
// ioctl requests rr cannot record. They carry no timeout/unsupported
// calibration — the comparison is about rr.
func ModernSample(seed uint64) []*Spec {
	rng := prng.NewHost(seed ^ 0x1803)
	specs := make([]*Spec, 0, 81)
	for i := 0; i < 81; i++ {
		s := generate(i, BLIrrepro_DTRepro, rng)
		s.Name = fmt.Sprintf("modern-%02d", i)
		s.Unsup = UnsupNone
		s.Compiler = "cc"
		s.Threads = ""
		s.UsesIoctl = i%81 < 46 // deterministic 46/81 split, shuffled below
		specs = append(specs, s)
	}
	// Shuffle the ioctl flags so they do not correlate with size.
	for i := len(specs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		specs[i].UsesIoctl, specs[j].UsesIoctl = specs[j].UsesIoctl, specs[i].UsesIoctl
	}
	return specs
}

// Package returns package n of the seeded universe, generating only the
// packages up to it; n outside [0, UniverseSize) is an error.
func Package(seed uint64, n int) (*Spec, error) {
	if n < 0 || n >= UniverseSize {
		return nil, fmt.Errorf("package %d out of range", n)
	}
	return Universe(seed, n+1)[n], nil
}

// Universe generates the first n packages of the seeded universe (n <= 0
// means all 17,145). The class sequence interleaves deterministically so any
// prefix is an unbiased sample of the whole.
func Universe(seed uint64, n int) []*Spec {
	if n <= 0 || n > UniverseSize {
		n = UniverseSize
	}
	classes := classSequence(seed)
	rng := prng.NewHost(seed ^ 0xdeb)
	specs := make([]*Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, generate(i, classes[i], rng))
	}
	return specs
}

// classSequence deals the Table-1 cell counts into a deterministic shuffled
// order so prefixes preserve proportions.
func classSequence(seed uint64) []Class {
	seq := make([]Class, 0, UniverseSize)
	add := func(c Class, n int) {
		for i := 0; i < n; i++ {
			seq = append(seq, c)
		}
	}
	add(BLFail, NBLFail)
	add(BLTimeoutC, NBLTimeout)
	add(BLRepro_DTRepro, NBLReproDTRepro)
	add(BLRepro_DTUnsup, NBLReproDTUnsup)
	add(BLRepro_DTTimeout, NBLReproDTTime)
	add(BLIrrepro_DTRepro, NBLIrrDTRepro)
	add(BLIrrepro_DTUnsup, NBLIrrDTUnsup)
	add(BLIrrepro_DTTimeout, NBLIrrDTTime)
	rng := prng.NewHost(seed ^ 0x5e9)
	for i := len(seq) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq
}

func generate(idx int, class Class, rng *prng.Host) *Spec {
	s := &Spec{
		Name:     fmt.Sprintf("pkg-%05d", idx),
		Version:  fmt.Sprintf("%d.%d-%d", 1+rng.Intn(4), rng.Intn(10), 1+rng.Intn(3)),
		Class:    class,
		Units:    3 + rng.Intn(12),
		UnitKB:   1 + rng.Intn(6),
		Headers:  45 + rng.Intn(75),
		Weight:   280,
		Compiler: "cc",
	}
	// A quarter of packages run a test suite after building; suites pipe
	// their output through the build driver.
	if rng.Intn(4) == 0 {
		tests := 40 + rng.Intn(400)
		s.Tests = [3]int{tests, rng.Intn(5), rng.Intn(3)}
	}
	// Build heaviness: sample a target system call *rate* on the Fig. 5
	// x-axis, mostly under 10k/s with a tail, and derive compute to match.
	rate := 1500 + rng.Int63n(9000)
	if rng.Intn(20) == 0 {
		rate = 10_000 + rng.Int63n(15_000) // the heavy tail
	}
	s.ComputeFct = computeForRate(s, rate)

	switch class {
	case BLFail:
		s.BrokenSource = true
	case BLTimeoutC:
		// Native build exceeds the 30-minute limit on compute alone.
		s.ComputeFct *= 40
	case BLRepro_DTRepro:
		s.maybePortability(rng, 3)
	case BLRepro_DTUnsup:
		s.assignUnsupported(rng, true)
	case BLRepro_DTTimeout:
		s.makeTimeoutProne(rng)
	case BLIrrepro_DTRepro:
		s.assignDirectives(rng)
		s.maybePortability(rng, 6)
	case BLIrrepro_DTUnsup:
		s.assignDirectives(rng)
		s.assignUnsupported(rng, false)
	case BLIrrepro_DTTimeout:
		s.assignDirectives(rng)
		s.makeTimeoutProne(rng)
	}
	// §7.1.1's clean threaded builds: a deterministic slice of the
	// DT-reproducible classes compiles javac-style, with worker threads
	// that block properly on a futex queue. Supported — slowly — under
	// serialized threads, and the farm-level beneficiaries of thread
	// workspaces. Keyed on the index, not the rng, so every other spec in
	// the universe keeps its exact pre-existing shape.
	if (class == BLRepro_DTRepro || class == BLIrrepro_DTRepro) && idx%7 == 3 {
		s.Compiler = "javac"
		s.Threads = "futex"
	}
	return s
}

// computeForRate solves the per-byte compute factor so the baseline build's
// syscall rate lands near target. Rough model: one unit costs ~24 calls of
// toolchain overhead plus ~11/3 calls per header probe (two misses and a
// hit across the search path); baseline wall time ≈ sequential compute +
// syscalls at ~2µs; compute = Units*UnitKB*1024*400ns*F*Weight.
func computeForRate(s *Spec, rate int64) int64 {
	perUnit := int64(24) + int64(s.Headers)*11/3
	weighted := (perUnit*int64(s.Units) + 300) * s.Weight
	wantTime := weighted * 1e9 / rate // ns
	syscallTime := weighted * 2_000
	computeTime := wantTime - syscallTime
	if computeTime < 1e9 {
		computeTime = 1e9
	}
	denom := int64(s.Units) * int64(s.UnitKB) * 1024 * 400 * s.Weight
	f := computeTime / denom
	if f < 1 {
		f = 1
	}
	return f
}

// assignDirectives samples 1–3 run-varying irreproducibility sources.
func (s *Spec) assignDirectives(rng *prng.Host) {
	n := 1 + rng.Intn(3)
	seen := map[string]bool{}
	for len(s.Directives) < n {
		d := DirectiveUniverse[rng.Intn(len(DirectiveUniverse))]
		if !seen[d] {
			seen[d] = true
			s.Directives = append(s.Directives, d)
		}
	}
	// Parallel-make races captured in a shipped build log are their own
	// source; ~8% of irreproducible packages exhibit it.
	if rng.Intn(12) == 0 {
		s.LogArtifact = true
	}
	if rng.Intn(6) == 0 {
		s.ShipConfigH = true
	}
}

// maybePortability gives 1-in-odds packages a machine-varying directive.
func (s *Spec) maybePortability(rng *prng.Host, odds int) {
	if rng.Intn(odds) == 0 {
		d := PortDirectiveUniverse[rng.Intn(len(PortDirectiveUniverse))]
		s.PortDirectives = append(s.PortDirectives, d)
	}
}

// assignUnsupported picks the §7.1.1 failure class. The blRepro flag marks
// the 137 packages that were reproducible in the baseline: their class mix
// is not broken down in the paper, so they draw from the same tail.
func (s *Spec) assignUnsupported(rng *prng.Host, blRepro bool) {
	// Proportions from §7.1.1: 876 busy-wait, 302 sockets, 79 signals,
	// remainder miscellaneous syscalls (of 1,912).
	r := rng.Intn(NBLIrrDTUnsup)
	switch {
	case r < NBusyWait:
		s.Unsup = UnsupBusyWait
		s.Compiler = "javac"
		s.Threads = "busywait"
		// Busy-wait (Java-ish) builds are kept small so baseline spinning
		// stays cheap to simulate.
		s.Units = 3 + rng.Intn(3)
		s.UnitKB = 1
		s.Weight = 25
		s.ComputeFct = 4
	case r < NBusyWait+NSocket:
		s.Unsup = UnsupSocket
	case r < NBusyWait+NSocket+NSignal:
		s.Unsup = UnsupSignal
	default:
		s.Unsup = UnsupMisc
	}
	if blRepro && s.Unsup == UnsupBusyWait && rng.Intn(2) == 0 {
		// Some clean threaded builds block properly but still use sockets.
		s.Unsup = UnsupSocket
		s.Compiler = "cc"
		s.Threads = ""
	}
}

// makeTimeoutProne shapes a package that completes natively inside 30
// minutes but whose DetTrace run blows the 2-hour limit: an extreme system
// call rate with a long baseline time. The large weight keeps simulation
// cheap while virtual time races to the deadline.
func (s *Spec) makeTimeoutProne(rng *prng.Host) {
	s.Units = 16 + rng.Intn(7)
	s.Headers = 110 + rng.Intn(40)
	s.Weight = 4000
	s.Tests = [3]int{0, 0, 0}
	// ~20 minutes of baseline time at a very high system call rate: the
	// native build finishes inside the 30-minute limit, but the tracer's
	// per-call service pushes the DetTrace run past two hours.
	s.ComputeFct = computeForRate(s, 42_000+rng.Int63n(12_000))
}
