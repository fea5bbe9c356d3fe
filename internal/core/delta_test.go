package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// Delta checkpoint seals (DESIGN.md §4h): after the first seal, a checkpoint
// records only the inodes dirtied since the previous seal, chained onto it.
// The ablation contract is absolute — the delta-seals row is mechanism-only, a
// run and every resume from its seals must be bitwise identical either way —
// and the chain validator must contain corruption to the suffix that chains
// through it.

// TestDeltaSealsBitwiseEquivalent is the ablation equivalence gate: the same
// workload sealed with delta chains and with standalone full seals produces
// identical output, ring, metrics and per-seal ring digests — only the seal
// storage shape differs.
func TestDeltaSealsBitwiseEquivalent(t *testing.T) {
	var delta, full []*core.Checkpoint
	dcfg := chainConfig(hostA)
	dcfg.CheckpointSink = func(cp *core.Checkpoint) { delta = append(delta, cp) }
	dres := runChain(dcfg)
	if dres.Err != nil {
		t.Fatalf("delta-sealed run: %v", dres.Err)
	}
	fcfg := chainConfig(hostA)
	fcfg.Off = core.Off(core.DeltaSeals)
	fcfg.CheckpointSink = func(cp *core.Checkpoint) { full = append(full, cp) }
	fres := runChain(fcfg)
	if fres.Err != nil {
		t.Fatalf("full-sealed run: %v", fres.Err)
	}
	if got, want := bitwise(t, dres), bitwise(t, fres); got != want {
		t.Errorf("delta seals changed the run\n delta: %.300s\n full:  %.300s", got, want)
	}
	if len(delta) != len(full) {
		t.Fatalf("seal counts differ: delta %d, full %d", len(delta), len(full))
	}
	for i := range delta {
		ds := delta[i].Kernel().FSSealStats()
		fs := full[i].Kernel().FSSealStats()
		if fs.Delta {
			t.Errorf("seal %d: ablated run produced a delta seal", i+1)
		}
		if i == 0 && ds.Delta {
			t.Errorf("first seal must be a full base, got delta")
		}
		if i > 0 {
			if !ds.Delta {
				t.Errorf("seal %d: delta run produced a standalone seal", i+1)
			}
			if ds.FreshBytes >= fs.TotalBytes {
				t.Errorf("seal %d: delta stored %d bytes, no cheaper than the %d-byte full seal",
					i+1, ds.FreshBytes, fs.TotalBytes)
			}
		}
		if ds.TotalBytes != fs.TotalBytes {
			t.Errorf("seal %d: logical tree sizes differ: %d vs %d", i+1, ds.TotalBytes, fs.TotalBytes)
		}
		// The sealed ring prefixes are the same bytes, so the validation
		// digests — what the bisector binary-searches — must agree too.
		if delta[i].Digest() != full[i].Digest() {
			t.Errorf("seal %d: ring digests diverge between delta and full runs", i+1)
		}
	}
}

// TestDeltaChainResumeSweep pins the acceptance criterion directly: at every
// seal of the chain, resuming the delta-chained seal and resuming the
// equivalent standalone full seal both reproduce the uninterrupted run
// bitwise.
func TestDeltaChainResumeSweep(t *testing.T) {
	ref := refChain(t, hostA)
	want := bitwise(t, ref)
	for _, off := range []core.Mechanisms{0, core.Off(core.DeltaSeals)} {
		ablate := off != 0
		var seals []*core.Checkpoint
		cfg := chainConfig(hostA)
		cfg.Off = off
		cfg.CheckpointSink = func(cp *core.Checkpoint) { seals = append(seals, cp) }
		if res := runChain(cfg); res.Err != nil {
			t.Fatalf("sealed run (ablate=%v): %v", ablate, res.Err)
		}
		if len(seals) < 2 {
			t.Fatalf("want ≥2 seals, got %d", len(seals))
		}
		for _, cp := range seals {
			rcfg := discardSink(chainConfig(hostA))
			rcfg.Off = off
			res, err := core.Resume(cp, chainRegistry(), rcfg)
			if err != nil {
				t.Fatalf("resume seal %d (ablate=%v): %v", cp.Ordinal(), ablate, err)
			}
			if got := bitwise(t, res); got != want {
				t.Errorf("seal %d (ablate=%v): resumed != uninterrupted\n got: %.300s\nwant: %.300s",
					cp.Ordinal(), ablate, got, want)
			}
		}
	}
}

// TestDeltaCorruptionPoisonsSuffix: with delta chains, corrupting one seal
// invalidates it and every later seal that chains through it; the prefix
// before the corruption stays valid and resumes bitwise-faithfully. Under
// the ablation the same fault stays contained to the one corrupted seal.
func TestDeltaCorruptionPoisonsSuffix(t *testing.T) {
	ref := refChain(t, hostA)
	run := func(ablate bool) []*core.Checkpoint {
		var seals []*core.Checkpoint
		cfg := chainConfig(hostA)
		if ablate {
			cfg.Off = core.Off(core.DeltaSeals)
		}
		cfg.FaultCorruptCheckpoint = 2
		cfg.CheckpointSink = func(cp *core.Checkpoint) { seals = append(seals, cp) }
		if res := runChain(cfg); res.Err != nil {
			t.Fatalf("run (ablate=%v): %v", ablate, res.Err)
		}
		if len(seals) < 3 {
			t.Fatalf("want ≥3 seals, got %d", len(seals))
		}
		return seals
	}

	chained := run(false)
	for i, cp := range chained {
		if valid := cp.Valid(); valid != (i == 0) {
			t.Errorf("delta seal %d Valid() = %v; corruption at 2 must poison the whole suffix", i+1, valid)
		}
	}
	// Resume from any poisoned seal is rejected; the newest valid prefix
	// still restores the full run.
	if _, err := core.Resume(chained[len(chained)-1], chainRegistry(), discardSink(chainConfig(hostA))); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Errorf("resume from poisoned suffix: err=%v, want ErrCheckpointCorrupt", err)
	}
	res, err := core.Resume(chained[0], chainRegistry(), discardSink(chainConfig(hostA)))
	if err != nil {
		t.Fatalf("resume from valid prefix: %v", err)
	}
	if bitwise(t, res) != bitwise(t, ref) {
		t.Errorf("prefix resume diverged from uninterrupted run")
	}

	standalone := run(true)
	for i, cp := range standalone {
		if valid := cp.Valid(); valid != (i != 1) {
			t.Errorf("full seal %d Valid() = %v; ablated corruption must stay contained", i+1, valid)
		}
	}
}

// TestHaltedReplayIsStrictPrefix pins the seek primitive: HaltAtAction and
// HaltAtLTime stop the run with Halted set (no error), at a state whose ring
// is a strict prefix of the uninterrupted run's.
func TestHaltedReplayIsStrictPrefix(t *testing.T) {
	ref := runChain(chainConfig(hostA))
	if ref.Err != nil {
		t.Fatalf("reference: %v", ref.Err)
	}

	acfg := chainConfig(hostA)
	acfg.HaltAtAction = ref.Actions / 2
	halted := runChain(acfg)
	if halted.Err != nil || !halted.Halted {
		t.Fatalf("HaltAtAction: err=%v halted=%v", halted.Err, halted.Halted)
	}
	if halted.Actions != ref.Actions/2 {
		t.Errorf("halted at action %d, want %d", halted.Actions, ref.Actions/2)
	}
	checkPrefix := func(name string, res *core.Result) {
		t.Helper()
		if len(res.Events) == 0 || len(res.Events) >= len(ref.Events) {
			t.Fatalf("%s: ring has %d events, want a strict prefix of %d", name, len(res.Events), len(ref.Events))
		}
		for i, e := range res.Events {
			if e != ref.Events[i] {
				t.Fatalf("%s: ring event %d differs from the uninterrupted run's", name, i)
			}
		}
	}
	checkPrefix("HaltAtAction", halted)

	lcfg := chainConfig(hostA)
	lcfg.HaltAtLTime = ref.LTime / 2
	lhalted := runChain(lcfg)
	if lhalted.Err != nil || !lhalted.Halted {
		t.Fatalf("HaltAtLTime: err=%v halted=%v", lhalted.Err, lhalted.Halted)
	}
	if lhalted.LTime < ref.LTime/2 || lhalted.LTime >= ref.LTime {
		t.Errorf("halted at ltime %d, want within [%d, %d)", lhalted.LTime, ref.LTime/2, ref.LTime)
	}
	checkPrefix("HaltAtLTime", lhalted)
}

// TestDeltaSealsPartitionConfigHash: the ablation is part of a run's identity
// (delta-run artifacts must never satisfy a full-seal cache key), while the
// halt knobs are per-run debugger state and excluded — a halted replay must
// pass the recovery-hash check against seals taken without them.
func TestDeltaSealsPartitionConfigHash(t *testing.T) {
	base := chainConfig(hostA)
	want := core.ConfigHash(base)

	ablated := base
	ablated.Off = core.Off(core.DeltaSeals)
	if core.ConfigHash(ablated) == want {
		t.Errorf("the delta-seals row does not partition the config-hash key space")
	}

	halting := base
	halting.HaltAtAction = 100
	halting.HaltAtLTime = 100_000
	if core.ConfigHash(halting) != want {
		t.Errorf("halt knobs changed the config hash; halted replays could not resume sealed checkpoints")
	}
}
