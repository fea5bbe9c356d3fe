package buildsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/ttd"
)

// The study oracles, on hand-built values: every check a gate made beside
// its study flips the study's (or cell's) verdict on its own. Each failing
// row names what the older oracle let through.
func TestStudyOraclesByHand(t *testing.T) {
	attest := func(mod func(*AttestStudy)) *AttestStudy {
		st := &AttestStudy{Packages: 1, Cells: 2, IdenticalAdmitted: 2, IdenticalOuts: 2,
			ByzantineCells: 1, Caught: 1, Admitted: 2, Verified: 2}
		mod(st)
		return st
	}
	ttdStudy := func(mod func(*TTDStudy)) *TTDStudy {
		st := &TTDStudy{Packages: 2, Equivalent: 2, BisectAgree: 2, BisectDivergent: 1, bisectHeld: 1}
		mod(st)
		return st
	}
	bisect := func(mod func(*bisectCell)) *bisectCell {
		c := &bisectCell{inject: 1, divergent: true, agree: true, bound: 5,
			res: &ttd.BisectResult{WindowReplays: 2}}
		mod(c)
		return c
	}
	diag := func(inject int, mod func(*DiagnoseReport)) func() bool {
		r := &DiagnoseReport{OutputIdentical: true}
		mod(r)
		return func() bool { return r.OK(inject) }
	}
	same := func(*DiagnoseReport) {}
	diverged := func(r *DiagnoseReport) { r.Divergence = &obs.Divergence{Index: 7} }
	cases := []struct {
		name string
		ok   func() bool
		want bool
	}{
		{"attest: all held", attest(func(*AttestStudy) {}).OK, true},
		{"attest: an admitted artifact not verified", attest(func(st *AttestStudy) { st.Verified-- }).OK, false},
		{"attest: nothing admitted", attest(func(st *AttestStudy) { st.Admitted, st.Verified = 0, 0 }).OK, false},

		{"ttd: every divergent bisection held", ttdStudy(func(*TTDStudy) {}).OK, true},
		{"ttd: a vacuous agreement stays out of the oracle", ttdStudy(func(st *TTDStudy) {
			st.BisectDivergent, st.bisectHeld = 0, 0
		}).OK, true},
		{"ttd: a divergent bisection agreed past the O(log n) bound", ttdStudy(func(st *TTDStudy) { st.bisectHeld = 0 }).OK, false},

		{"bisect: agreed within the bound", bisect(func(*bisectCell) {}).OK, true},
		{"bisect: agreed past the bound", bisect(func(c *bisectCell) { c.res.WindowReplays = 6 }).OK, false},
		{"bisect: injected fault never diverged", bisect(func(c *bisectCell) { c.divergent = false }).OK, false},
		{"bisect: nothing injected, nothing found", bisect(func(c *bisectCell) { c.divergent, c.inject = false, 0 }).OK, true},

		{"fault: every run on the reference bits", (&FaultStudy{Packages: 1, Crashed: 1, Identical: 1}).OK, true},
		{"fault: an uncrashed second run diverged", (&FaultStudy{Packages: 1, diverged: 1}).OK, false},

		{"diagnose: clean and identical", diag(0, same), true},
		{"diagnose: clean but outputs differ", diag(0, func(r *DiagnoseReport) { r.OutputIdentical = false }), false},
		{"diagnose: clean but the streams diverge", diag(0, diverged), false},
		{"diagnose: injected and localized", diag(1, diverged), true},
		{"diagnose: injected but nothing found", diag(1, same), false},
	}
	for _, tc := range cases {
		if got := tc.ok(); got != tc.want {
			t.Errorf("%s: OK = %v, want %v", tc.name, got, tc.want)
		}
	}
}
