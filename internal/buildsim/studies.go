// The four side studies of the evaluation: the §6.1 stock-Wheezy baseline
// (E10), the §7.1.3 Mozilla-rr comparison (E3), the §7.3 cross-machine
// portability study with its dir-size ablation (E5), and the §7.2 LLVM
// self-host correctness check (E4).
package buildsim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/diffoscope"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/reprotest"
	"repro/internal/rr"
	"repro/internal/stats"
	"repro/internal/stripnd"
)

// StockStudy is the §6.1 stock toolchain result: double builds with no
// DetTrace, with and without strip-nondeterminism.
type StockStudy struct {
	Packages int
	Build    int // both builds completed
	Fail     int
	Timeout  int

	ReproNoStrip   int // bitwise-identical raw .debs (paper: 0)
	ReproWithStrip int // identical after strip-nondeterminism (paper: 24.1%)

	// SampleDiffs holds diffoscope's localization of the first few packages
	// that stay irreproducible even after stripping.
	SampleDiffs []string
}

// String renders the study like §6.1 reports it.
func (st *StockStudy) String() string {
	return fmt.Sprintf(
		"packages: %d   built: %s   failed: %s   timed out: %s\n"+
			"reproducible, stock toolchain:          %s\n"+
			"reproducible with strip-nondeterminism: %s",
		st.Packages,
		stats.Pct(st.Build, st.Packages), stats.Pct(st.Fail, st.Packages), stats.Pct(st.Timeout, st.Packages),
		stats.Pct(st.ReproNoStrip, st.Build),
		stats.Pct(st.ReproWithStrip, st.Build))
}

// RunStock runs the baseline-only double-build protocol over specs.
func (o *Options) RunStock(specs []*debpkg.Spec) *StockStudy {
	type stockOut struct {
		built, timeout     bool
		noStrip, withStrip bool
		diff               string
	}
	outs := make([]stockOut, len(specs))
	o.forEach(len(specs), func(l obs.Local, i int) {
		spec := specs[i]
		v1, v2 := reprotest.Pair(pkgSeed(o.Seed, spec))
		b1 := o.buildNative(l, spec, v1, BLDeadline)
		if v := b1.verdict(); v != "" {
			outs[i].timeout = v == Timeout
			return
		}
		b2 := o.buildNative(l, spec, v2, BLDeadline)
		if v := b2.verdict(); v != "" {
			outs[i].timeout = v == Timeout
			return
		}
		outs[i].built = true
		outs[i].noStrip = bytes.Equal(b1.deb, b2.deb)
		s1, s2 := stripnd.Strip(b1.deb), stripnd.Strip(b2.deb)
		outs[i].withStrip = bytes.Equal(s1, s2)
		if !outs[i].withStrip {
			outs[i].diff = firstDebDiff(spec, s1, s2)
		}
	})
	st := &StockStudy{Packages: len(specs)}
	for _, so := range outs {
		switch {
		case so.built:
			st.Build++
		case so.timeout:
			st.Timeout++
		default:
			st.Fail++
		}
		if so.noStrip {
			st.ReproNoStrip++
		}
		if so.withStrip {
			st.ReproWithStrip++
		}
		if so.diff != "" && len(st.SampleDiffs) < 3 {
			st.SampleDiffs = append(st.SampleDiffs, so.diff)
		}
	}
	return st
}

// firstDebDiff localizes the first difference between two .debs.
func firstDebDiff(spec *debpkg.Spec, a, b []byte) string {
	ia, ib := fs.NewImage(), fs.NewImage()
	name := "/" + spec.Name + ".deb"
	ia.AddFile(name, 0o644, a)
	ib.AddFile(name, 0o644, b)
	diffs := diffoscope.Compare(ia, ib)
	if len(diffs) == 0 {
		return ""
	}
	return spec.Name + ": " + diffs[0].String()
}

// RRStudy is the §7.1.3 comparison: recording the modern 81-package sample
// with an rr-style single-threaded recorder.
type RRStudy struct {
	Packages int
	Crashed  int // aborted on rr's unhandled-ioctl bug
	Recorded int

	AvgOverhead float64 // recording time vs native, over recorded packages
	MinOverhead float64
	MaxOverhead float64
	AvgTraceKB  float64
}

// String renders the study like §7.1.3 reports it.
func (st *RRStudy) String() string {
	return fmt.Sprintf(
		"modern packages: %d; rr crashed (unhandled ioctl): %d; recorded: %d\n"+
			"recording overhead vs native: avg %.1fx (range %.1f-%.1fx); avg trace %.0f KiB",
		st.Packages, st.Crashed, st.Recorded,
		st.AvgOverhead, st.MinOverhead, st.MaxOverhead, st.AvgTraceKB)
}

// RunRRStudy records the ModernSample under the rr policy and compares
// against native builds.
func (o *Options) RunRRStudy() *RRStudy {
	specs := debpkg.ModernSample(o.Seed)
	type rrOut struct {
		crashed  bool
		recorded bool
		overhead float64
		traceKB  float64
	}
	outs := make([]rrOut, len(specs))
	o.forEach(len(specs), func(l obs.Local, i int) {
		spec := specs[i]
		v1, _ := reprotest.Pair(pkgSeed(o.Seed, spec))
		nat := o.buildNative(l, spec, v1, BLDeadline)
		if nat.verdict() != "" {
			return
		}
		wall, traceBytes, crashed := o.buildRR(l, spec, v1)
		if crashed {
			outs[i].crashed = true
			return
		}
		if wall <= 0 || nat.wall <= 0 {
			return
		}
		outs[i].recorded = true
		outs[i].overhead = float64(wall) / float64(nat.wall)
		outs[i].traceKB = float64(traceBytes) / 1024
	})
	st := &RRStudy{Packages: len(specs)}
	var ovs, kbs []float64
	for _, ro := range outs {
		switch {
		case ro.crashed:
			st.Crashed++
		case ro.recorded:
			st.Recorded++
			ovs = append(ovs, ro.overhead)
			kbs = append(kbs, ro.traceKB)
		}
	}
	if len(ovs) > 0 {
		st.AvgOverhead = stats.Mean(ovs)
		st.MinOverhead, st.MaxOverhead = stats.MinMax(ovs)
		st.AvgTraceKB = stats.Mean(kbs)
	}
	return st
}

// buildRR records one package build under the rr-style policy, booted —
// like every policy — from the shared image snapshot unless the template
// ablation is on. rr's known crash — an unhandled tty ioctl — surfaces as
// ErrUnsupportedIoctl.
func (o *Options) buildRR(l obs.Local, spec *debpkg.Spec, v reprotest.Variation) (wall, traceBytes int64, crashed bool) {
	rec := rr.NewRecorder(machine.CloudLabC220G5().SeccompSingleStop)
	k, pkgdir := o.bootNative(l, o.stores().snapshots, spec, v, DTDeadline, rec)
	rec.Attach(k)
	startBuild(k, pkgdir, v.Env)
	runErr := k.Run()
	return k.Now(), rec.Trace.Bytes, errors.Is(runErr, rr.ErrUnsupportedIoctl)
}

// PortStudy is the §7.3 cross-machine result: the same container run on
// Skylake/4.15 and Broadwell/4.18, outputs compared bitwise.
type PortStudy struct {
	Packages  int // DT-reproducible packages built on both machines
	Identical int
	Ablate    bool // dir-size virtualization disabled
	Example   string
}

// String renders the study like §7.3 reports it.
func (st *PortStudy) String() string {
	s := fmt.Sprintf("%d/%d packages bitwise-identical across skylake/4.15 and broadwell/4.18",
		st.Identical, st.Packages)
	if st.Example != "" {
		s += "\n  example difference: " + st.Example
	}
	return s
}

// RunPortability builds n DT-reproducible candidates once per machine
// profile (same container inputs, different physical host) and compares the
// .debs. With ablate the §7.3 directory-size virtualization is disabled,
// reopening the leak the paper found: only packages whose configure step
// stats a directory's size diverge.
func (o *Options) RunPortability(n int, ablate bool) *PortStudy {
	if n <= 0 {
		n = 100
	}
	cands := portCandidates(o.Seed, n)
	type portOut struct {
		ok, identical bool
		diff          string
	}
	outs := make([]portOut, len(cands))
	o.forEach(len(cands), func(l obs.Local, i int) {
		spec := cands[i]
		a, b := o.buildOnBothMachines(l, spec, ablate)
		if a.deb == nil || b.deb == nil {
			return
		}
		outs[i].ok = true
		outs[i].identical = bytes.Equal(a.deb, b.deb)
		if !outs[i].identical {
			outs[i].diff = firstDebDiff(spec, a.deb, b.deb)
		}
	})
	st := &PortStudy{Ablate: ablate}
	for _, po := range outs {
		if !po.ok {
			continue
		}
		st.Packages++
		if po.identical {
			st.Identical++
		} else if st.Example == "" {
			st.Example = po.diff
		}
	}
	return st
}

// portCandidates is the portability study's sample: the first n packages of
// the seed's universe that DetTrace makes reproducible.
func portCandidates(seed uint64, n int) []*debpkg.Spec {
	var cands []*debpkg.Spec
	for _, s := range debpkg.Universe(seed, 0) {
		if s.Class == debpkg.BLRepro_DTRepro || s.Class == debpkg.BLIrrepro_DTRepro {
			cands = append(cands, s)
		}
		if len(cands) >= n {
			break
		}
	}
	return cands
}

// buildOnBothMachines builds spec under DetTrace once on each §7.3 machine
// profile, same container inputs, with dir-size virtualization off when
// ablate.
func (o *Options) buildOnBothMachines(l obs.Local, spec *debpkg.Spec, ablate bool) (a, b dtRun) {
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	at := func(p *machine.Profile) func(*core.Config) {
		return func(c *core.Config) { c.Profile, c.DisableDirSizes = p, ablate }
	}
	a = o.buildDT(l, spec, seed, v1, at(machine.CloudLabC220G5()))
	b = o.buildDT(l, spec, seed, reprotest.PortabilityHost(v1, seed), at(machine.PortabilityBroadwell()))
	return a, b
}

// LLVMStudy is the §7.2 self-host correctness check: the llvm package's
// test-suite outcome natively versus under DetTrace.
type LLVMStudy struct {
	NativeSummary   string
	DetTraceSummary string
	Match           bool
	DetTraceVerdict Verdict
}

// RunLLVM builds the llvm package natively and twice under DetTrace, then
// compares the test-suite outcome of the two built binaries.
//
// The DetTrace summary can be read straight off the build log: the tracer's
// Fig.-4 write retries deliver the harness's burst write through the pipe
// intact. The native build log cannot — the unretried burst is truncated at
// pipe capacity, losing the summary lines (the very hazard the retry
// machinery exists for) — so both binaries are re-run under a neutral
// harness whose stdout is the console, which never takes partial writes.
func (o *Options) RunLLVM() *LLVMStudy {
	spec := debpkg.LLVM()
	seed := pkgSeed(o.Seed, spec)
	v1, v2 := reprotest.Pair(seed)
	l := obs.NewLocal()
	nat := o.buildNative(l, spec, v1, BLDeadline)
	d1 := o.buildDT(l, spec, seed, v1, nil)
	d2 := o.buildDT(l, spec, seed, v2, nil)
	st := &LLVMStudy{
		NativeSummary:   testSummary(selftest(nat.prog)),
		DetTraceSummary: testSummary(d1.log),
	}
	if st.DetTraceSummary == "" {
		st.DetTraceSummary = testSummary(selftest(d1.prog))
	}
	st.Match = st.NativeSummary != "" && st.NativeSummary == st.DetTraceSummary
	switch {
	case d1.unsup != "" || d2.unsup != "":
		st.DetTraceVerdict = Unsupported
	case d1.timeout || d2.timeout:
		st.DetTraceVerdict = Timeout
	case d1.deb == nil || d2.deb == nil:
		st.DetTraceVerdict = Fail
	case bytes.Equal(d1.deb, d2.deb):
		st.DetTraceVerdict = Reproducible
	default:
		st.DetTraceVerdict = Irreproducible
	}
	return st
}

// selftest runs a built binary's --selftest suite on a fresh simulated host
// with stdout on the console (console writes are never partial) and returns
// the full report. The outcome is a pure function of the payload the linker
// embedded, so this observes exactly what the binary's own build would have
// reported.
func selftest(prog []byte) []byte {
	if prog == nil {
		return nil
	}
	img := baseimg.WithBinaries()
	img.AddFile("/prog", 0o755, prog)
	k := kernel.New(kernel.Config{
		Profile:  machine.CloudLabC220G5(),
		NumCPU:   1,
		Image:    img,
		Resolver: registry().Resolver(),
		Deadline: BLDeadline,
	})
	argv := []string{"prog", "--selftest"}
	init := func(t *kernel.Thread) int {
		p := &guest.Proc{T: t}
		if err := p.Exec("/prog", argv, containerEnv); err != abi.OK {
			return 127
		}
		return 127 // unreachable
	}
	k.Start(init, argv, containerEnv)
	if k.Run() != nil {
		return nil
	}
	return k.Console.Out
}

// testSummary condenses the cbin --selftest report from a build log.
func testSummary(log []byte) string {
	var tests, pass, xfail, unsup int
	found := false
	for _, line := range strings.Split(string(log), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case scan(line, "Testing: %d tests", &tests):
			found = true
		case scan(line, "Expected Passes    : %d", &pass):
		case scan(line, "Expected Failures  : %d", &xfail):
		case scan(line, "Unsupported Tests  : %d", &unsup):
		}
	}
	if !found {
		return ""
	}
	return fmt.Sprintf("%d tests: %d pass, %d expected failures, %d unsupported",
		tests, pass, xfail, unsup)
}

func scan(line, format string, dst *int) bool {
	_, err := fmt.Sscanf(line, format, dst)
	return err == nil
}
