package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is BENCHMARK.json: the benchmark's contract with the acceptance
// pipeline, and the ledger's bounds.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *manifest) bound(name string) (float64, bool) {
	for _, e := range m.EndToEnd {
		if e.Name == name {
			return e.Bound, true
		}
	}
	return 0, false
}

func readResult(path string) (*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Row verdicts of -compare.
const (
	vIdentical  = "identical"  // exact metric, bitwise equal
	vDiffers    = "DIFFERS"    // exact metric moved: a regression until declared intent says otherwise
	vUnchanged  = "unchanged"  // host metric within its bound
	vImproved   = "improved"   // host metric better by more than its bound
	vRegressed  = "REGRESSED"  // host metric worse by more than its bound
	vUnresolved = "unresolved" // the repetitions are too unsteady for the bound: the runs cannot tell
	vInfo       = "info"       // per-layer host metric: no bound, shown for attribution
)

// worseBy is how much worse b is than a as a share of a, signed by the
// metric's direction (positive = worse).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if better == "higher" {
		rel = -rel
	}
	return rel
}

// allBetter reports whether every repetition of b reads better than every
// repetition of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := quantile(a, 0), quantile(a, 1)
	minB, maxB := quantile(b, 0), quantile(b, 1)
	if better == "higher" {
		return minB > maxA
	}
	return maxB < minA
}

// judge classifies one host metric with a bound.
func judge(name string, a, b float64, repsA, repsB []float64, better string, bound float64) string {
	worse := worseBy(a, b, better)
	if worse > bound {
		return vRegressed
	}
	if unsteadiness(name, repsA, better) > bound || unsteadiness(name, repsB, better) > bound {
		if allBetter(repsA, repsB, better) {
			return vImproved
		}
		return vUnresolved
	}
	if worse < -bound {
		return vImproved
	}
	return vUnchanged
}

// compareSets compares result set B against result set A (directories of
// <workload>.json and <workload>.layers.json) under the bounds in the
// manifest, prints one row per metric x workload, and returns the exit code:
// non-zero on any regression, on any exact metric that moved, and on sets
// that cannot be compared.
func compareSets(w io.Writer, man *manifest, dirA, dirB string) int {
	counts := map[string]int{}
	code := 0
	bad := func(format string, args ...any) {
		fmt.Fprintf(w, "!! "+format+"\n", args...)
		code = 1
	}
	quart := func(s []float64) string {
		if len(s) < 2 {
			return "-"
		}
		return fmt.Sprintf("%.5g..%.5g", quantile(s, 0.25), quantile(s, 0.75))
	}
	for _, wl := range man.Workloads {
		for _, traced := range []bool{false, true} {
			ra, errA := readResult(resultPath(dirA, wl.Name, traced))
			rb, errB := readResult(resultPath(dirB, wl.Name, traced))
			if errA != nil && errB != nil && os.IsNotExist(errA) && os.IsNotExist(errB) {
				continue
			}
			if errA != nil || errB != nil {
				bad("%s (trace %v): %v / %v", wl.Name, traced, errA, errB)
				continue
			}
			if ra.Seed != rb.Seed || ra.Scale != rb.Scale || ra.InputDigest != rb.InputDigest {
				bad("%s (trace %v): different inputs (seed %d/%d, scale %g/%g, input_digest %s/%s) — not comparable",
					wl.Name, traced, ra.Seed, rb.Seed, ra.Scale, rb.Scale, ra.InputDigest, rb.InputDigest)
				continue
			}
			defs, kind := endToEnd, "end-to-end"
			if traced {
				defs, kind = perLayer, "per-layer"
			}
			fmt.Fprintf(w, "== %s  %s  seed %d\n", wl.Name, kind, ra.Seed)
			fmt.Fprintf(w, "  %-30s %14s %14s %8s  %-10s %s\n", "metric", "A", "B", "worse", "verdict", "quartiles A | B")
			row := func(name string, a, b float64, verdict, extra string) {
				counts[verdict]++
				fmt.Fprintf(w, "  %-30s %14.6g %14.6g %+7.1f%%  %-10s %s\n", name, a, b,
					100*nanZero((b-a)/math.Abs(a)), verdict, extra)
				if verdict == vRegressed || verdict == vDiffers {
					code = 1
				}
			}
			for _, d := range defs {
				a, b := ra.Metrics[d.name], rb.Metrics[d.name]
				switch bound, bounded := man.bound(d.name); {
				case d.exact:
					verdict := vIdentical
					if a.Value != b.Value {
						verdict = vDiffers
					}
					row(d.name, a.Value, b.Value, verdict, "")
				case bounded:
					sa, sb := ra.Reps[d.name], rb.Reps[d.name]
					row(d.name, a.Value, b.Value, judge(d.name, a.Value, b.Value, sa, sb, d.better, bound),
						fmt.Sprintf("%s | %s  (bound %.0f%%)", quart(sa), quart(sb), 100*bound))
				default:
					row(d.name, a.Value, b.Value, vInfo, "")
				}
			}
			verdict := vIdentical
			if ra.FailedFrac != rb.FailedFrac {
				verdict = vDiffers
			}
			row("failed_frac", ra.FailedFrac, rb.FailedFrac, verdict, "")
			if rb.Failed > 0 {
				bad("%s (trace %v): B reports %d failed ops of %d", wl.Name, traced, rb.Failed, rb.Attempted)
			}
			if ra.OutsDigest != rb.OutsDigest {
				counts[vDiffers]++
				bad("%s (trace %v): outs_digest %s -> %s: outputs are not identical", wl.Name, traced, ra.OutsDigest, rb.OutsDigest)
			} else {
				fmt.Fprintf(w, "  %-30s %s (identical)\n", "outs_digest", ra.OutsDigest)
			}
		}
	}
	fmt.Fprintf(w, "\nrows: %d identical, %d unchanged, %d improved, %d info, %d unresolved, %d REGRESSED, %d DIFFERS\n",
		counts[vIdentical], counts[vUnchanged], counts[vImproved], counts[vInfo],
		counts[vUnresolved], counts[vRegressed], counts[vDiffers])
	return code
}

func nanZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
