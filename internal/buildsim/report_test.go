package buildsim

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/stats"
)

// The marginals sample is built once and shared across the report tests
// (aggSample packages — see sample_norace_test.go / sample_race_test.go).
var (
	aggOnce sync.Once
	aggOuts []Out
	aggRep  *Report
)

func aggregateSample(t *testing.T) ([]Out, *Report) {
	t.Helper()
	aggOnce.Do(func() {
		specs := debpkg.Universe(1, aggSample)
		aggOuts = (&Options{Seed: 1, Jobs: 8}).BuildAll(specs, nil)
		aggRep = Aggregate(aggOuts)
	})
	return aggOuts, aggRep
}

// The same packages in the paper's configuration, built once for the Table 1
// calibration: DetTrace has no syscall buffer.
var (
	paperOnce sync.Once
	paperRep  *Report
)

func paperSample(t *testing.T) *Report {
	t.Helper()
	paperOnce.Do(func() {
		specs := debpkg.Universe(1, aggSample)
		paperRep = Aggregate((&Options{Seed: 1, Jobs: 8, Off: core.PaperDetTrace}).BuildAll(specs, nil))
	})
	return paperRep
}

// Every package lands in exactly one bucket: a Cells[bl][dt] cell, BLFail,
// or BLTimeout — the counts conserve the sample size.
func TestAggregateConservation(t *testing.T) {
	outs, r := aggregateSample(t)
	cellSum := 0
	for _, row := range r.Cells {
		for _, n := range row {
			cellSum += n
		}
	}
	if got := cellSum + r.BLFail + r.BLTimeout; got != len(outs) {
		t.Errorf("cells (%d) + BLFail (%d) + BLTimeout (%d) = %d, want %d",
			cellSum, r.BLFail, r.BLTimeout, got, len(outs))
	}
	if r.Packages != len(outs) {
		t.Errorf("Packages = %d, want %d", r.Packages, len(outs))
	}
	if rowTotal(r.Cells[string(Reproducible)]) != r.BLRepro {
		t.Errorf("reproducible row total %d != BLRepro %d",
			rowTotal(r.Cells[string(Reproducible)]), r.BLRepro)
	}
	if rowTotal(r.Cells[string(Irreproducible)]) != r.BLIrrepro {
		t.Errorf("irreproducible row total %d != BLIrrepro %d",
			rowTotal(r.Cells[string(Irreproducible)]), r.BLIrrepro)
	}
}

// pct is a plain percentage for tolerance checks.
func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// rescuedKept is Table 1's two headline shares: the baseline-irreproducible
// packages DetTrace makes reproducible, and the baseline-reproducible ones it
// keeps reproducible.
func rescuedKept(r *Report) (rescued, kept float64) {
	irr, rep := r.Cells[string(Irreproducible)], r.Cells[string(Reproducible)]
	return pct(irr[string(Reproducible)], rowTotal(irr)), pct(rep[string(Reproducible)], rowTotal(rep))
}

// dtIrreproducible counts the packages irreproducible under DetTrace.
func dtIrreproducible(r *Report) int {
	return r.Cells[string(Irreproducible)][string(Irreproducible)] + r.Cells[string(Reproducible)][string(Irreproducible)]
}

// The measured Table 1 marginals must land near the paper's proportions
// (targets derived from the Table 1 counts in debpkg, not re-transcribed), in
// the paper's configuration.
func TestTable1Marginals(t *testing.T) {
	r := paperSample(t)
	rescued, kept := rescuedKept(r)
	t.Logf("rescued %.2f%%, kept %.2f%%, aggregate %.3f", rescued, kept, r.AggregateSlowdown)

	// DetTrace "rescues" baseline-irreproducible packages: paper 72.65%.
	wantRescued := pct(debpkg.NBLIrrDTRepro,
		debpkg.NBLIrrDTRepro+debpkg.NBLIrrDTUnsup+debpkg.NBLIrrDTTime)
	if math.Abs(rescued-wantRescued) > 6 {
		t.Errorf("rescued = %.2f%%, want %.2f%% ± 6", rescued, wantRescued)
	}

	// Baseline-reproducible packages stay reproducible: paper ~90.5%.
	wantKept := pct(debpkg.NBLReproDTRepro,
		debpkg.NBLReproDTRepro+debpkg.NBLReproDTUnsup+debpkg.NBLReproDTTime)
	if math.Abs(kept-wantKept) > 6 {
		t.Errorf("kept = %.2f%%, want %.2f%% ± 6", kept, wantKept)
	}

	// The container's whole point: no package is irreproducible under DT.
	if n := dtIrreproducible(r); n != 0 {
		t.Errorf("%d packages DT-irreproducible, want 0", n)
	}

	// Baseline failures track the universe rate (paper 1,344/17,145).
	fails := pct(r.BLFail, r.Packages)
	wantFails := pct(debpkg.NBLFail, debpkg.UniverseSize)
	if math.Abs(fails-wantFails) > 4 {
		t.Errorf("baseline failures = %.2f%%, want %.2f%% ± 4", fails, wantFails)
	}

	// Busy-waiting dominates the §7.1.1 unsupported breakdown.
	unsupTotal := 0
	for _, n := range r.Unsup {
		unsupTotal += n
	}
	busy := pct(r.Unsup["busy-waiting"], unsupTotal)
	for class, n := range r.Unsup {
		if n > r.Unsup["busy-waiting"] {
			t.Errorf("unsupported class %q (%d) exceeds busy-waiting (%d)",
				class, n, r.Unsup["busy-waiting"])
		}
	}
	if busy < 30 || busy > 60 {
		t.Errorf("busy-waiting share = %.2f%%, want 30-60%%", busy)
	}

	// Aggregate slowdown lands in the paper's neighbourhood (3.49x).
	if r.AggregateSlowdown < 2 || r.AggregateSlowdown > 6 {
		t.Errorf("AggregateSlowdown = %.2f, want 2-6", r.AggregateSlowdown)
	}
}

// The buffered default is the paper's DetTrace plus a performance mechanism:
// it makes no package irreproducible, rescues at least the packages the
// paper's configuration rescues (the buffer carries some builds across the
// deadline), and is faster in aggregate.
func TestTable1BufferedDefault(t *testing.T) {
	_, r := aggregateSample(t)
	paper := paperSample(t)
	if n := dtIrreproducible(r); n != 0 {
		t.Errorf("%d packages DT-irreproducible, want 0", n)
	}
	rescued, kept := rescuedKept(r)
	paperRescued, paperKept := rescuedKept(paper)
	t.Logf("buffered: rescued %.2f%%, kept %.2f%%, aggregate %.3f; unbuffered: %.2f%%, %.2f%%, %.3f",
		rescued, kept, r.AggregateSlowdown, paperRescued, paperKept, paper.AggregateSlowdown)
	if rescued < paperRescued {
		t.Errorf("rescued = %.2f%% buffered, below the unbuffered %.2f%%", rescued, paperRescued)
	}
	if r.AggregateSlowdown >= paper.AggregateSlowdown {
		t.Errorf("AggregateSlowdown = %.3f buffered, not below the unbuffered %.3f", r.AggregateSlowdown, paper.AggregateSlowdown)
	}
}

// The bottom half of Table 1 is derived from the measured joint distribution
// (DESIGN.md §3), never transcribed from the paper's inconsistent row: each
// rendered DT-outcome share must equal the corresponding cell sums.
func TestTable1BottomDerived(t *testing.T) {
	_, r := aggregateSample(t)
	bottom := r.Table1Bottom()
	built := r.BLRepro + r.BLIrrepro
	for _, dt := range []Verdict{Reproducible, Irreproducible, Unsupported, Timeout} {
		nR := r.Cells[string(Reproducible)][string(dt)]
		nI := r.Cells[string(Irreproducible)][string(dt)]
		if want := stats.Pct(nR+nI, built); !strings.Contains(bottom, want) {
			t.Errorf("bottom table missing %s share %q:\n%s", dt, want, bottom)
		}
	}
	if !strings.Contains(bottom, "derived from the joint distribution") {
		t.Errorf("bottom table does not state its derivation:\n%s", bottom)
	}
	top := r.Table1Top()
	if !strings.Contains(top, "baseline build failures") {
		t.Errorf("top table missing the excluded-failures footer:\n%s", top)
	}
}

// Figure 5 carries one point per DT-completed build, and its CSV header
// reports the same aggregate the Report holds.
func TestFig5(t *testing.T) {
	_, r := aggregateSample(t)
	completed := r.Cells[string(Reproducible)][string(Reproducible)] +
		r.Cells[string(Reproducible)][string(Irreproducible)] +
		r.Cells[string(Irreproducible)][string(Reproducible)] +
		r.Cells[string(Irreproducible)][string(Irreproducible)]
	if len(r.Fig5) != completed {
		t.Errorf("Fig5 has %d points, want %d (DT-completed builds)", len(r.Fig5), completed)
	}
	for _, p := range r.Fig5 {
		if p.Rate <= 0 || p.Slowdown <= 0 {
			t.Fatalf("degenerate Fig5 point %+v", p)
		}
	}
	csv := r.Fig5Summary()
	if !strings.HasPrefix(csv, "#") || !strings.Contains(csv, "syscalls_per_sec,slowdown,threaded") {
		t.Errorf("Fig5Summary format:\n%.200s", csv)
	}
	if len(strings.Split(csv, "\n")) != len(r.Fig5)+2 {
		t.Errorf("Fig5Summary has %d lines, want %d", len(strings.Split(csv, "\n")), len(r.Fig5)+2)
	}
	// Table 2 averages exist whenever builds completed.
	if completed > 0 && (r.Table2.Syscalls <= 0 || r.Table2.Spawns <= 0) {
		t.Errorf("Table2 averages empty: %+v", r.Table2)
	}
}
