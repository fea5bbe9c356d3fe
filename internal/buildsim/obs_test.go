package buildsim

import (
	"testing"

	"repro/internal/debpkg"
	"repro/internal/obs"
)

// Two identical diagnostic runs retain byte-identical complete event streams;
// the diagnoser finds nothing.
func TestDiagnoseCleanRunsIdentical(t *testing.T) {
	spec := debpkg.Universe(1, 1)[0]
	r := (&Options{Seed: 1}).Diagnose(spec, 0)
	if r.VerdictA != "" || r.VerdictB != "" {
		t.Fatalf("diagnostic builds did not complete: %q / %q", r.VerdictA, r.VerdictB)
	}
	if !r.OutputIdentical {
		t.Errorf("identical inputs produced differing outputs")
	}
	if r.EventsA == 0 || r.EventsA != r.EventsB {
		t.Errorf("event streams differ in length: %d vs %d", r.EventsA, r.EventsB)
	}
	if r.Divergence != nil {
		t.Errorf("clean double build diverged:\n%s", r.Divergence)
	}
}

// A seeded entropy perturbation in a full modeled package build is localized
// by the diagnoser to the exact first divergent event: the perturbed draw.
func TestDiagnoseLocalizesInjectedEntropy(t *testing.T) {
	const inject = 1
	spec := debpkg.Universe(1, 1)[0]
	r := (&Options{Seed: 1}).Diagnose(spec, inject)
	if r.VerdictA != "" || r.VerdictB != "" {
		t.Fatalf("diagnostic builds did not complete: %q / %q", r.VerdictA, r.VerdictB)
	}
	d := r.Divergence
	if d == nil {
		t.Fatal("injected entropy fault produced no divergence")
	}
	if d.A == nil || d.A.Kind != obs.KindEntropy {
		t.Fatalf("first divergence is %v, want the perturbed entropy draw", d.A)
	}
	if draw := d.A.Arg >> 32; draw != inject {
		t.Errorf("diagnoser localized draw %d, want draw %d", draw, inject)
	}
	// The aligned event in the faulty stream is the same draw with different
	// payload bytes — the divergence is exact, not smeared downstream.
	if d.B == nil || d.B.Kind != obs.KindEntropy || d.B.Arg != d.A.Arg || d.B.Ret == d.A.Ret {
		t.Errorf("divergent events misaligned: A=%v B=%v", d.A, d.B)
	}
}

// Out's trace fields stay empty unless KeepTraces asks for them — they carry
// mechanism-dependent metadata (fork-only COW events, wall-clock span costs)
// that must not leak into the path-independence comparisons above.
func TestKeepTracesGating(t *testing.T) {
	specs := debpkg.Universe(5, 2)
	plain := (&Options{Seed: 5}).BuildAll(specs, nil)
	for _, out := range plain {
		if out.RecEvents != 0 || out.Trace != nil || out.Spans != nil {
			t.Fatalf("default farm retained trace data: %+v", out)
		}
	}
	kept := (&Options{Seed: 5, KeepTraces: true}).BuildAll(specs, nil)
	some := false
	for _, out := range kept {
		if len(out.Trace) > 0 && len(out.Spans) > 0 && out.RecEvents > 0 {
			some = true
		}
	}
	if !some {
		t.Fatalf("KeepTraces farm retained no traces")
	}
}
