package buildsim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/hashdeep"
)

// ttdSpec returns a package the ttd gates can record: the same universe
// package the `reprotest -bisect` CLI gate exercises.
func ttdSpec(t *testing.T) *debpkg.Spec {
	t.Helper()
	specs := debpkg.Universe(1, 1)
	if len(specs) == 0 {
		t.Fatal("empty universe")
	}
	return specs[0]
}

// TestTTDDeltaEquivalence is the CI equivalence gate: a build recorded with
// delta checkpoint seals is bitwise identical to the same build recorded with
// the delta-seals row off — same artifacts, same wall time, same per-seal ring
// digests — while the delta chain stores strictly fewer bytes.
func TestTTDDeltaEquivalence(t *testing.T) {
	spec := ttdSpec(t)
	o := &Options{Seed: 1, Checkpoints: true}

	d, dRun := o.recordSession(spec, 0, nil)
	if v, _ := dRun.verdict(); v != "" {
		t.Fatalf("delta-sealed build did not complete: %s", v)
	}
	f, fRun := o.recordSession(spec, 0, func(c *core.Config) { c.Off |= core.Off(core.DeltaSeals) })
	if v, _ := fRun.verdict(); v != "" {
		t.Fatalf("full-sealed build did not complete: %s", v)
	}

	if dRun.exit != fRun.exit || dRun.wall != fRun.wall ||
		!bytes.Equal(dRun.deb, fRun.deb) || !bytes.Equal(dRun.log, fRun.log) {
		t.Errorf("delta seals changed the build: exit %d/%d wall %d/%d deb equal=%v log equal=%v",
			dRun.exit, fRun.exit, dRun.wall, fRun.wall,
			bytes.Equal(dRun.deb, fRun.deb), bytes.Equal(dRun.log, fRun.log))
	}
	if len(d.Seals) == 0 || len(d.Seals) != len(f.Seals) {
		t.Fatalf("seal counts: delta %d, full %d", len(d.Seals), len(f.Seals))
	}
	var deltaBytes, fullBytes int64
	for i := range d.Seals {
		if d.Seals[i].Digest() != f.Seals[i].Digest() {
			t.Errorf("seal %d: ring digests diverge between the two recordings", i+1)
		}
		ds := d.Seals[i].Kernel().FSSealStats()
		fs := f.Seals[i].Kernel().FSSealStats()
		if fs.Delta || (i > 0 && !ds.Delta) {
			t.Errorf("seal %d: wrong seal shapes (delta=%v ablated=%v)", i+1, ds.Delta, fs.Delta)
		}
		if ds.Delta {
			deltaBytes += ds.FreshBytes
		} else {
			deltaBytes += ds.TotalBytes
		}
		fullBytes += fs.TotalBytes
	}
	if deltaBytes >= fullBytes {
		t.Errorf("delta chain stored %d bytes, full seals %d; chaining bought nothing", deltaBytes, fullBytes)
	}
}

// TestSeekChainMatchesCold: SeekTo from the seal chain must observe the exact
// state a cold replay to the same instant observes — filesystem, ring prefix,
// entropy cursor, logical clock — while replaying strictly fewer actions.
func TestSeekChainMatchesCold(t *testing.T) {
	spec := ttdSpec(t)
	o := &Options{Seed: 1, Checkpoints: true}
	sess, run := o.recordSession(spec, 0, nil)
	if v, _ := run.verdict(); v != "" {
		t.Fatalf("build did not complete: %s", v)
	}
	if len(sess.Seals) < 2 || len(sess.Trace) == 0 {
		t.Fatalf("recording too small: %d seals, %d events", len(sess.Seals), len(sess.Trace))
	}
	mid := sess.Trace[len(sess.Trace)/2].LTime

	warm, err := sess.SeekTo(mid)
	if err != nil {
		t.Fatalf("seek from chain: %v", err)
	}
	cold := *sess
	cold.Seals = nil
	cview, err := cold.SeekTo(mid)
	if err != nil {
		t.Fatalf("cold seek: %v", err)
	}

	if warm.SealOrdinal == 0 {
		t.Errorf("chain seek replayed cold despite %d seals", len(sess.Seals))
	}
	if cview.SealOrdinal != 0 {
		t.Errorf("sealless seek restored ordinal %d", cview.SealOrdinal)
	}
	if !warm.Halted || !cview.Halted {
		t.Fatalf("mid-trace seek did not halt: warm=%v cold=%v", warm.Halted, cview.Halted)
	}
	if warm.LTime != cview.LTime || warm.Actions != cview.Actions ||
		warm.EntropyDraws != cview.EntropyDraws {
		t.Errorf("seek states differ: ltime %d/%d actions %d/%d draws %d/%d",
			warm.LTime, cview.LTime, warm.Actions, cview.Actions,
			warm.EntropyDraws, cview.EntropyDraws)
	}
	if got, want := hashdeep.HashSubtree(warm.FS, "/").Total(),
		hashdeep.HashSubtree(cview.FS, "/").Total(); got != want {
		t.Errorf("seek filesystems differ: %s vs %s", got, want)
	}
	if len(warm.Events) != len(cview.Events) {
		t.Fatalf("ring prefixes differ in length: %d vs %d", len(warm.Events), len(cview.Events))
	}
	for i := range warm.Events {
		if warm.Events[i] != cview.Events[i] {
			t.Fatalf("ring prefix event %d differs between chain and cold seek", i)
		}
	}
	if warm.ReplayedActions >= cview.ReplayedActions {
		t.Errorf("chain seek replayed %d actions, cold %d; the chain bought nothing",
			warm.ReplayedActions, cview.ReplayedActions)
	}

	// The session's own observability saw both seeks — and only the session's:
	// counters live on the debug registry, never the guest run's.
	if sess.Obs != nil {
		if n := sess.Obs.Counter("ttd_seek_total").Value(); n < 2 {
			t.Errorf("ttd_seek_total = %d, want >= 2", n)
		}
	}
}

// TestSeekStepsDownPastCorruption: a corrupted mid-chain delta seal poisons
// its suffix, and SeekTo degrades to the newest seal whose whole chain still
// validates — observing the identical state.
func TestSeekStepsDownPastCorruption(t *testing.T) {
	spec := ttdSpec(t)
	o := &Options{Seed: 1, Checkpoints: true}
	ref, run := o.recordSession(spec, 0, nil)
	if v, _ := run.verdict(); v != "" {
		t.Fatalf("build did not complete: %s", v)
	}
	if len(ref.Seals) < 3 {
		t.Skipf("need >=3 seals to corrupt mid-chain, got %d", len(ref.Seals))
	}
	corruptAt := len(ref.Seals)/2 + 1 // ordinal, 1-based
	bad, badRun := o.recordSession(spec, 0, func(c *core.Config) {
		c.FaultCorruptCheckpoint = corruptAt
	})
	if v, _ := badRun.verdict(); v != "" {
		t.Fatalf("corrupted-seal build did not complete: %s", v)
	}

	// Seek to an instant after the last seal: the intact session restores its
	// newest seal; the corrupted one must step down below the corruption.
	target := bad.Seals[len(bad.Seals)-1].LNow() + 1
	want, err := ref.SeekTo(target)
	if err != nil {
		t.Fatalf("seek on intact chain: %v", err)
	}
	got, err := bad.SeekTo(target)
	if err != nil {
		t.Fatalf("seek on corrupted chain: %v", err)
	}
	if got.SealOrdinal >= corruptAt {
		t.Errorf("seek restored poisoned ordinal %d (corruption at %d)", got.SealOrdinal, corruptAt)
	}
	if want.SealOrdinal != len(ref.Seals) {
		t.Errorf("intact seek restored ordinal %d, want newest %d", want.SealOrdinal, len(ref.Seals))
	}
	if got.LTime != want.LTime || got.Actions != want.Actions {
		t.Errorf("degraded seek diverged: ltime %d/%d actions %d/%d",
			got.LTime, want.LTime, got.Actions, want.Actions)
	}
	if a, b := hashdeep.HashSubtree(got.FS, "/").Total(),
		hashdeep.HashSubtree(want.FS, "/").Total(); a != b {
		t.Errorf("degraded seek filesystem differs: %s vs %s", a, b)
	}
}

// TestBisectMatchesLinearDiagnose is the `reprotest -bisect` gate run as a
// test: checkpoint bisection of an entropy-injected divergence must land on
// the exact event the linear diagnoser reports, within the O(log n)
// window-replay bound.
func TestBisectMatchesLinearDiagnose(t *testing.T) {
	o := &Options{Seed: 1}
	report, ok := o.BisectDiagnose(ttdSpec(t), 1)
	if !ok {
		t.Fatalf("bisect gate failed:\n%s", report)
	}
	if !strings.Contains(report, "agree") {
		t.Errorf("gate passed but report does not state agreement:\n%s", report)
	}
}
