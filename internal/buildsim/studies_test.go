package buildsim

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/reprotest"
)

// The §6.1 stock study: every package lands in one bucket, raw .debs never
// match (paper: 0), strip-nondeterminism rescues some but not all.
func TestRunStock(t *testing.T) {
	o := &Options{Seed: 1, Jobs: 4}
	specs := debpkg.Universe(1, 120)
	st := o.RunStock(specs)
	if st.Packages != len(specs) {
		t.Errorf("Packages = %d, want %d", st.Packages, len(specs))
	}
	if got := st.Build + st.Fail + st.Timeout; got != st.Packages {
		t.Errorf("Build (%d) + Fail (%d) + Timeout (%d) = %d, want %d",
			st.Build, st.Fail, st.Timeout, got, st.Packages)
	}
	if st.ReproNoStrip != 0 {
		t.Errorf("ReproNoStrip = %d, want 0 (stock toolchain embeds timestamps)", st.ReproNoStrip)
	}
	if st.ReproWithStrip <= 0 || st.ReproWithStrip >= st.Build {
		t.Errorf("ReproWithStrip = %d of %d built, want strictly between", st.ReproWithStrip, st.Build)
	}
	if len(st.SampleDiffs) == 0 {
		t.Error("no SampleDiffs localized despite irreproducible packages")
	}
	for _, d := range st.SampleDiffs {
		if !strings.Contains(d, ": ") {
			t.Errorf("SampleDiff %q not of the form name: diff", d)
		}
	}
}

// The §7.1.3 rr comparison: the modern sample's terminal-probing packages
// crash the recorder (paper: 46 of 81), the rest record with overhead.
func TestRunRRStudy(t *testing.T) {
	st := (&Options{Seed: 1, Jobs: 4}).RunRRStudy()
	if st.Packages != 81 {
		t.Errorf("Packages = %d, want 81", st.Packages)
	}
	if st.Crashed != 46 {
		t.Errorf("Crashed = %d, want 46 (the ioctl-probing split)", st.Crashed)
	}
	if st.Recorded <= 0 || st.Crashed+st.Recorded > st.Packages {
		t.Errorf("Recorded = %d with %d crashed of %d", st.Recorded, st.Crashed, st.Packages)
	}
	if st.AvgOverhead <= 1 || st.AvgOverhead > 30 {
		t.Errorf("AvgOverhead = %.2f, want within (1, 30]", st.AvgOverhead)
	}
	if st.MinOverhead > st.AvgOverhead || st.AvgOverhead > st.MaxOverhead {
		t.Errorf("overhead ordering: min %.2f avg %.2f max %.2f",
			st.MinOverhead, st.AvgOverhead, st.MaxOverhead)
	}
	if st.AvgTraceKB <= 0 {
		t.Errorf("AvgTraceKB = %.1f, want > 0", st.AvgTraceKB)
	}
}

// With dir-size virtualization on, every package builds bitwise-identically
// across the Skylake/4.15 and Broadwell/4.18 profiles.
func TestRunPortabilityVirtualized(t *testing.T) {
	st := (&Options{Seed: 1, Jobs: 4}).RunPortability(12)
	if st.Packages == 0 {
		t.Fatal("no packages completed on both machines")
	}
	if st.Identical != st.Packages {
		t.Errorf("%d/%d identical, want all (example: %s)", st.Identical, st.Packages, st.Example)
	}
	if st.Example != "" {
		t.Errorf("unexpected example difference: %s", st.Example)
	}
}

// Disabling dir-size virtualization reopens the §7.3 leak, but only for
// packages whose configure step stats a directory size: the two machines'
// filesystems report different directory sizes, and nothing else differs.
func TestPortabilityDirSizeAblation(t *testing.T) {
	o := &Options{Seed: 1}
	var leaky, clean *debpkg.Spec
	for _, s := range portCandidates(o.Seed, 400) {
		dirsize := slices.Contains(s.PortDirectives, "dirsize:src")
		if dirsize && leaky == nil {
			leaky = s
		}
		if !dirsize && len(s.PortDirectives) == 0 && clean == nil {
			clean = s
		}
		if leaky != nil && clean != nil {
			break
		}
	}
	if leaky == nil || clean == nil {
		t.Fatal("candidate set lacks a dirsize:src package or a directive-free package")
	}

	ablated := &Options{Seed: 1, Off: core.Off(core.DirSizes)}
	// Virtualized: the dirsize package ports cleanly.
	if a, b := o.buildOnBothMachines(leaky); a.deb == nil || !bytes.Equal(a.deb, b.deb) {
		t.Errorf("%s: debs differ across machines with virtualization on", leaky.Name)
	}
	// Ablated: the same package leaks the host's directory sizes.
	if a, b := ablated.buildOnBothMachines(leaky); a.deb == nil || bytes.Equal(a.deb, b.deb) {
		t.Errorf("%s: debs identical across machines despite the ablation", leaky.Name)
	}
	// Ablated, but no machine-varying directives: still identical.
	if a, b := ablated.buildOnBothMachines(clean); a.deb == nil || !bytes.Equal(a.deb, b.deb) {
		t.Errorf("%s: directive-free package diverged under the ablation", clean.Name)
	}
}

// The §7.2 self-host check: the natively-built and DetTrace-built llvm
// binaries report identical test-suite outcomes, and the DetTrace build is
// reproducible.
func TestRunLLVM(t *testing.T) {
	st := (&Options{Seed: 1}).RunLLVM()
	want := "5657 tests: 5594 pass, 48 expected failures, 15 unsupported"
	if st.NativeSummary != want {
		t.Errorf("NativeSummary = %q, want %q", st.NativeSummary, want)
	}
	if st.DetTraceSummary != want {
		t.Errorf("DetTraceSummary = %q, want %q", st.DetTraceSummary, want)
	}
	if !st.Match {
		t.Error("Match = false, want true")
	}
	if st.DetTraceVerdict != Reproducible {
		t.Errorf("DetTraceVerdict = %s, want %s", st.DetTraceVerdict, Reproducible)
	}
}

// The reason RunLLVM re-runs the binaries: the native build log is truncated
// at pipe capacity (the harness's burst write is not retried natively),
// while under DetTrace the Fig.-4 write retries deliver it intact — and a
// console selftest of the built binary recovers the full report either way.
func TestSelftestTruncationHazard(t *testing.T) {
	spec := debpkg.LLVM()
	v1, _ := reprotest.Pair(pkgSeed(1, spec))
	nat := (&Options{Seed: 1}).buildNative(spec, v1, BLDeadline)
	if nat.verdict() != "" {
		t.Fatalf("native llvm build failed: %s", nat.verdict())
	}
	if bytes.Contains(nat.log, []byte("Testing:")) {
		t.Error("native build log contains the selftest summary — the partial-write hazard disappeared")
	}
	report := selftest(nat.prog)
	if !bytes.Contains(report, []byte("Testing: 5657 tests")) {
		t.Errorf("console selftest report incomplete:\n%.300s", report)
	}
	if selftest(nil) != nil {
		t.Error("selftest(nil) should be nil")
	}
}
