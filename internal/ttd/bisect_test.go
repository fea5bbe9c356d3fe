package ttd_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestBisectMatchesLinear: a perturbed entropy draw in the first seal window,
// in a middle one and after the last seal is bracketed by adjacent seals and
// localized to the event the linear diagnoser finds over the two full rings,
// in at most two window replays. The chain seals at init's exec, before any
// guest instruction, so draw 1 lands in the first window; each stage draws
// once, so draw n lands after seal n.
func TestBisectMatchesLinear(t *testing.T) {
	clean, _ := record(t, nil)
	for _, draw := range []int{1, 2, stages} {
		dirty, _ := record(t, func(c *core.Config) { c.FaultInjectEntropy = draw })
		res, err := clean.Bisect(dirty)
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		linear := obs.FirstDivergence(clean.Trace, dirty.Trace)
		d := res.Divergence
		if linear == nil || d == nil || d.Index != linear.Index ||
			!reflect.DeepEqual(d.A, linear.A) || !reflect.DeepEqual(d.B, linear.B) {
			t.Fatalf("draw %d: bisect found %v, linear %v", draw, d, linear)
		}
		if d.A.Kind != obs.KindEntropy || int(d.A.Arg>>32) != draw {
			t.Errorf("draw %d: divergence is %s draw %d", draw, d.A.Kind, d.A.Arg>>32)
		}
		hi := draw + 1
		if hi > len(clean.Seals) {
			hi = 0 // the divergence lies after the last common seal
		}
		if res.LowOrdinal != draw || res.HighOrdinal != hi {
			t.Errorf("draw %d: window (%d, %d], want (%d, %d]", draw, res.LowOrdinal, res.HighOrdinal, draw, hi)
		}
		if lt := d.A.LTime; lt < clean.Seals[draw-1].LNow() || hi > 0 && lt > clean.Seals[hi-1].LNow() {
			t.Errorf("draw %d at ltime %d lies outside its window", draw, lt)
		}
		if res.WindowReplays > 2 {
			t.Errorf("draw %d: %d window replays, want at most 2", draw, res.WindowReplays)
		}
	}

	again, _ := record(t, nil)
	if res, err := clean.Bisect(again); err != nil {
		t.Errorf("clean vs clean: %v", err)
	} else if res.Divergence != nil {
		t.Errorf("clean vs clean diverged: %v", res.Divergence)
	}
	sealless := *again
	sealless.Seals = nil
	if _, err := clean.Bisect(&sealless); err == nil {
		t.Error("bisect against a run with no seals succeeded")
	}
}
