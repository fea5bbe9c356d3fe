// First-divergence diagnosis for disagreeing double builds: run the same
// package twice under DetTrace — optionally perturbing one run — and align
// the two flight-recorder rings to pinpoint the first event where the
// container histories part ways. This is the debugging story the recorder
// exists for: a failed reproducibility verdict names the output bytes that
// differ, the diagnoser names the first *cause* visible in the event stream
// (a syscall with a different argument digest, an entropy draw with a
// different payload, a scheduler decision that went the other way).
package buildsim

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/obs"
	"repro/internal/reprotest"
)

// DiagnoseReport is the outcome of one diagnostic double build.
type DiagnoseReport struct {
	Spec *debpkg.Spec

	// VerdictA/VerdictB are the two runs' failure verdicts ("" = completed).
	VerdictA, VerdictB Verdict

	// OutputIdentical reports whether the two .debs (and build logs) matched
	// bitwise. With no injected perturbation this must be true.
	OutputIdentical bool

	// EventsA/EventsB are the rings' retained event counts.
	EventsA, EventsB int

	// Divergence is the first aligned event where the streams disagree, nil
	// when the rings match event for event.
	Divergence *obs.Divergence
}

// String renders the report for reprotest -diagnose.
func (r *DiagnoseReport) String() string {
	s := fmt.Sprintf("%s_%s: ", r.Spec.Name, r.Spec.Version)
	if r.VerdictA != "" || r.VerdictB != "" {
		s += fmt.Sprintf("builds did not complete (run A: %q, run B: %q)\n", r.VerdictA, r.VerdictB)
	} else if r.OutputIdentical {
		s += "outputs bitwise identical\n"
	} else {
		s += "outputs DIFFER\n"
	}
	s += fmt.Sprintf("recorded events: %d (run A) vs %d (run B)\n", r.EventsA, r.EventsB)
	if r.Divergence == nil {
		s += "event streams identical: no divergence to report"
	} else {
		s += r.Divergence.String()
	}
	return s
}

// OK is the `reprotest -diagnose` verdict for a report built with the given
// injection. With none, both builds must complete with identical outputs and
// the diagnoser must find no divergence; with one (inject > 0) it must find a
// divergence to localize — the same non-vacuity rule as `-bisect`.
func (r *DiagnoseReport) OK(inject int) bool {
	if inject > 0 {
		return r.Divergence != nil
	}
	return r.OutputIdentical && r.Divergence == nil
}

// Diagnose builds spec twice under DetTrace with the SAME variation — so any
// divergence is a real determinism failure, not a varied input — and aligns
// the flight-recorder rings. inject > 0 perturbs the second run's inject'th
// entropy draw (core.Config.FaultInjectEntropy), the seeded-fault mode that
// demonstrates the diagnoser localizing a divergence to its exact first
// event.
// diagnoseRingEvents sizes the diagnostic runs' flight-recorder rings. A
// diagnosis wants the COMPLETE event stream — a divergence whose first event
// rotated out of a default-sized ring would be reported at the wrong place —
// so both runs get a ring far above any modeled build's event count.
// RingEvents is excluded from ConfigHash (behaviourally invisible), so the
// bigger ring cannot itself perturb the runs.
const diagnoseRingEvents = 1 << 21

func (o *Options) Diagnose(spec *debpkg.Spec, inject int) *DiagnoseReport {
	seed := pkgSeed(o.Seed, spec)
	v, _ := reprotest.Pair(seed)
	a := o.buildDT(spec, seed, v, func(c *core.Config) {
		c.RingEvents = diagnoseRingEvents
	})
	b := o.buildDT(spec, seed, v, func(c *core.Config) {
		c.RingEvents = diagnoseRingEvents
		if inject > 0 {
			c.FaultInjectEntropy = inject
		}
	})

	r := &DiagnoseReport{
		Spec:    spec,
		EventsA: len(a.trace),
		EventsB: len(b.trace),
	}
	r.VerdictA, _ = a.verdict()
	r.VerdictB, _ = b.verdict()
	r.OutputIdentical = r.VerdictA == "" && r.VerdictB == "" &&
		bytes.Equal(a.deb, b.deb) && bytes.Equal(a.log, b.log)
	r.Divergence = obs.FirstDivergence(a.trace, b.trace)
	return r
}
