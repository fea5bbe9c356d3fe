package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/attest"
)

// testScale shrinks every workload to a twentieth of its frozen size so the
// whole file fits the tier-1 time budget.
const testScale = 0.05

func testOptions(name string, seed uint64, trace bool) options {
	return options{workload: name, seed: seed, trace: trace, scale: testScale,
		clients: 2, setups: 1, minReps: 1}
}

func mustRun(t *testing.T, opt options) *result {
	t.Helper()
	res, err := runBench(opt)
	if err != nil {
		t.Fatalf("%s: %v", opt.workload, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%s (trace %v): %d failed ops of %d", opt.workload, opt.trace, res.Failed, res.Attempted)
	}
	return res
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}

func emitted(res *result) []string {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSameSeedSameNumbers: two runs of one seed agree on every exact metric,
// every count and the output digest, end to end and traced; and each run
// emits exactly the metric set its table declares.
func TestSameSeedSameNumbers(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			a := mustRun(t, testOptions(name, 7, trace))
			b := mustRun(t, testOptions(name, 7, trace))
			if got, want := emitted(a), metricNames(defs); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s (trace %v): emitted metrics\n got %v\nwant %v", name, trace, got, want)
			}
			if a.OutsDigest != b.OutsDigest || a.InputDigest != b.InputDigest || a.Attempted != b.Attempted {
				t.Errorf("%s (trace %v): runs disagree: outs %s/%s input %s/%s attempted %d/%d", name, trace,
					a.OutsDigest, b.OutsDigest, a.InputDigest, b.InputDigest, a.Attempted, b.Attempted)
			}
			for _, d := range defs {
				if d.exact && a.Metrics[d.name].Value != b.Metrics[d.name].Value {
					t.Errorf("%s: exact metric %s differs across runs: %v vs %v", name, d.name,
						a.Metrics[d.name].Value, b.Metrics[d.name].Value)
				}
				if !trace && a.Metrics[d.name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", name, d.name)
				}
			}
		}
	}
}

// TestSeedChangesInputs: a different seed generates different inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		var digests [2]uint64
		for i, seed := range []uint64{1, 2} {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			w.gen(seed, testScale)
			digests[i] = w.inputDigest()
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs (%016x)", name, digests[0])
		}
	}
}

// TestManifestMatchesHarness: BENCHMARK.json and the harness's metric tables
// agree name for name, unit for unit, direction for direction; names keep to
// the contract's alphabet; the workloads are the harness's.
func TestManifestMatchesHarness(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	type key struct{ name, unit, better string }
	want := map[bool][]key{}
	for _, d := range endToEnd {
		want[false] = append(want[false], key{d.name, d.unit, d.better})
	}
	for _, d := range perLayer {
		want[true] = append(want[true], key{d.name, d.unit, d.better})
	}
	got := map[bool][]key{}
	for _, e := range man.EndToEnd {
		got[false] = append(got[false], key{e.Name, e.Unit, e.Better})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, e := range man.PerLayer {
		got[true] = append(got[true], key{e.Name, e.Unit, e.Better})
	}
	seen := map[string]bool{}
	for _, traced := range []bool{false, true} {
		if len(got[traced]) != len(want[traced]) {
			t.Errorf("trace %v: manifest has %d metrics, harness %d", traced, len(got[traced]), len(want[traced]))
		}
		for i := range want[traced] {
			if i < len(got[traced]) && got[traced][i] != want[traced][i] {
				t.Errorf("trace %v metric %d: manifest %+v, harness %+v", traced, i, got[traced][i], want[traced][i])
			}
			k := want[traced][i]
			if !nameRE.MatchString(k.name) || seen[k.name] {
				t.Errorf("metric name %q is malformed or used twice", k.name)
			}
			seen[k.name] = true
		}
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why over 200 characters", w.Name)
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("manifest workloads %v, harness %v", names, workloadNames)
	}
	if _, ok := man.bound("setup_s"); !ok {
		t.Error("manifest lacks setup_s")
	}
}

// TestCorruptedOutputIsAFailedOp: one flipped byte in a forked boot's
// stdout, and one forged attestation accepted, each make failed_frac > 0.
func TestCorruptedOutputIsAFailedOp(t *testing.T) {
	boot := &bootChurn{}
	boot.gen(3, testScale)
	if out := boot.run(2, nil, nil); out.failed != 0 {
		t.Fatalf("boot-churn reference repetition: %d failed", out.failed)
	}
	boot.corrupt = func(image, b int, stdout string) string {
		if image == 2 && b == 3 {
			flipped := []byte(stdout)
			flipped[0] ^= 1
			return string(flipped)
		}
		return stdout
	}
	if out := boot.run(2, nil, nil); out.failed != 1 {
		t.Errorf("boot-churn with one corrupted forked boot: %d failed ops, want 1", out.failed)
	}

	fc := &farmControl{}
	fc.gen(3, testScale)
	ref := fc.run(2, nil, nil)
	if ref.failed != 0 {
		t.Fatalf("farm-control reference repetition: %d failed", ref.failed)
	}
	accepted := false
	fc.tamper = func(batch, job int, forged bool, v attest.Verdict) attest.Verdict {
		if forged && !accepted {
			accepted = true
			v.OK = true
		}
		return v
	}
	if out := fc.run(2, nil, nil); out.failed != 1 || !accepted {
		t.Errorf("farm-control with one forged claim accepted: %d failed ops (accepted %v), want 1", out.failed, accepted)
	}
}

// TestLastLineShape: the machine-readable line carries exactly the keys the
// acceptance pipeline parses.
func TestLastLineShape(t *testing.T) {
	res := mustRun(t, testOptions("syscall-mix", 1, false))
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.lastLine()), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, " ") != "attempted correct failed metrics" {
		t.Errorf("last line keys %v", keys)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s: keys %v, want value and unit", name, m)
		}
	}
}

// TestCompareVerdicts: identical sets pass; a host metric past its bound
// regresses; a spread wider than the bound is unresolved, not unchanged; a
// moved exact metric or output digest differs.
func TestCompareVerdicts(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, testOptions("syscall-mix", 1, false))
	write := func(mod func(*result)) string {
		dir := t.TempDir()
		r := *base
		r.Metrics = map[string]metricValue{}
		for k, v := range base.Metrics {
			r.Metrics[k] = v
		}
		r.Reps = map[string][]float64{}
		for k, v := range base.Reps {
			r.Reps[k] = append([]float64(nil), v...)
		}
		// Steady repetitions, so only the modification decides the verdict.
		for k := range r.Reps {
			m := r.Metrics[k].Value
			r.Reps[k] = []float64{m, m, m, m}
		}
		mod(&r)
		if err := r.write(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	scale := func(name string, f float64) func(*result) {
		return func(r *result) {
			mv := r.Metrics[name]
			mv.Value *= f
			r.Metrics[name] = mv
			for i := range r.Reps[name] {
				r.Reps[name][i] *= f
			}
		}
	}
	same := write(func(*result) {})
	cases := []struct {
		name string
		mod  func(*result)
		code int
		want string
	}{
		{"identical", func(*result) {}, 0, "0 REGRESSED, 0 DIFFERS"},
		{"slower", scale("ops_per_s", 0.7), 1, "REGRESSED"},
		{"faster", scale("ops_per_s", 1.5), 0, "improved"},
		{"noisy", func(r *result) { r.Reps["ops_per_s"] = []float64{1, 2, 3, 4, 5, 6} }, 0, "unresolved"},
		{"virtual moved", scale("virt_us_per_op", 1.0001), 1, "DIFFERS"},
		{"outputs moved", func(r *result) { r.OutsDigest = "0000000000000000" }, 1, "outputs are not identical"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		code := compareSets(&out, man, same, write(tc.mod))
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
