package buildsim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/reprotest"
)

// TestFarmFaultEquivalence is the farm-level determinism contract: a farm
// with deterministic faults injected — crashes, corrupted checkpoints, lost
// restore attempts — produces output DeepEqual to the fault-free
// checkpointed farm, across worker-pool sizes.
func TestFarmFaultEquivalence(t *testing.T) {
	specs := debpkg.Universe(3, 8)
	ref := (&Options{Seed: 3, Jobs: 1, Checkpoints: true}).BuildAll(specs, nil)

	for _, jobs := range []int{1, 4, 16} {
		o := &Options{Seed: 3, Jobs: jobs, Checkpoints: true, injectFaults: true}
		outs := o.BuildAll(specs, nil)
		if !reflect.DeepEqual(outs, ref) {
			for i := range outs {
				if !reflect.DeepEqual(outs[i], ref[i]) {
					t.Errorf("jobs=%d: %s diverged under faults: %+v vs %+v",
						jobs, specs[i].Name, outs[i], ref[i])
				}
			}
			t.Fatalf("jobs=%d: faulty farm output != fault-free farm output", jobs)
		}
		fst := o.FaultStats()
		if jobs == 1 {
			// The plans must actually exercise the machinery, not no-op.
			if fst.Crashes == 0 || fst.Restores == 0 {
				t.Fatalf("fault plans never fired: %+v", fst)
			}
			t.Logf("faults exercised: %+v", fst)
		}
	}
}

var updateObs = flag.Bool("update-obs", false, "rewrite testdata/fault_obs.golden from this tree")

// TestFaultObsGolden pins the farm registry's whole WriteProm dump after a
// small single-worker checkpointed farm with faults injected: every setup
// and fault counter and every absorbed container metric. Regenerate with
// -update-obs only when a count is meant to change.
func TestFaultObsGolden(t *testing.T) {
	o := &Options{Seed: 3, Jobs: 1, Checkpoints: true, injectFaults: true}
	o.BuildAll(debpkg.Universe(3, 8), nil)
	if fst := o.FaultStats(); fst.Crashes == 0 || fst.Restores == 0 {
		t.Fatalf("fault plans never fired: %+v", fst)
	}
	var got bytes.Buffer
	if err := o.Obs().WriteProm(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fault_obs.golden")
	if *updateObs {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("farm registry dump differs from the golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestCheckpointFarmVerdictsMatchPlain: checkpoint mode is its own bitwise
// equivalence class (the trampoline's execs advance virtual time), but it
// must never change what the farm measures — each package's verdicts.
func TestCheckpointFarmVerdictsMatchPlain(t *testing.T) {
	specs := debpkg.Universe(3, 8)
	plain := (&Options{Seed: 3, Jobs: 1}).BuildAll(specs, nil)
	ckpt := (&Options{Seed: 3, Jobs: 1, Checkpoints: true}).BuildAll(specs, nil)
	for i := range plain {
		if plain[i].BL != ckpt[i].BL || plain[i].DT != ckpt[i].DT ||
			plain[i].UnsupReason != ckpt[i].UnsupReason {
			t.Errorf("%s: verdicts changed under checkpointing: %s/%s vs %s/%s",
				specs[i].Name, plain[i].BL, plain[i].DT, ckpt[i].BL, ckpt[i].DT)
		}
	}
}

// TestCheckpointsOffSealsNothing guards the ablation: a default farm never
// touches the checkpoint plane at all.
func TestCheckpointsOffSealsNothing(t *testing.T) {
	o := &Options{Seed: 3, Jobs: 2}
	o.BuildAll(debpkg.Universe(3, 3), nil)
	if fst := o.FaultStats(); fst != (FaultStats{}) {
		t.Fatalf("checkpoint plane active in a default farm: %+v", fst)
	}
}

// sealGeometry runs one uninterrupted checkpoint-mode build of spec under o
// and returns each seal's action count, indexed by ordinal-1. Tests use it
// to aim crashes and corruption at specific seals without hardcoding the
// build's checkpoint layout.
func sealGeometry(t *testing.T, o *Options, spec *debpkg.Spec) []int64 {
	t.Helper()
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	img, pkgdir, imgHash := o.pkgImage(spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v1)
	var acts []int64
	cfg.CheckpointSink = func(cp *core.Checkpoint) { acts = append(acts, cp.Actions()) }
	o.runContainer(cfg, img, imgHash, checkpointEnv)
	if len(acts) < 3 {
		t.Fatalf("build sealed only %d checkpoints; geometry tests need at least 3", len(acts))
	}
	return acts
}

// crashOne runs one package's reference build and a mid-build-crashed build
// through o, returning both. plan receives the reference run and the seal
// geometry (action count per ordinal) to aim the fault.
func crashOne(t *testing.T, o *Options, plan func(ref dtRun, seals []int64) reprotest.FaultPlan) (ref, got dtRun) {
	t.Helper()
	spec := debpkg.Universe(1, 1)[0]
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	ref = o.buildDT(spec, seed, v1, nil)
	if v, _ := ref.verdict(); v != "" {
		t.Fatalf("reference build failed: %s", v)
	}
	seals := sealGeometry(t, o, spec)
	img, pkgdir, imgHash := o.pkgImage(spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v1)
	got, _ = o.buildDTFault(spec, plan(ref, seals), cfg, img, imgHash, pkgdir)
	return ref, got
}

// lastGapCrash aims a crash between the last two seals and names the
// freshest ordinal at that point: the sharpest place to test seal
// corruption, because exactly one fallback step reaches a valid older seal.
func lastGapCrash(seals []int64) (crashAt int64, freshest int) {
	lo, hi := seals[len(seals)-2], seals[len(seals)-1]
	return (lo + hi) / 2, len(seals) - 1
}

func assertSameBits(t *testing.T, ref, got dtRun) {
	t.Helper()
	if got.exit != ref.exit || got.wall != ref.wall || got.actions != ref.actions ||
		!bytes.Equal(got.deb, ref.deb) || !bytes.Equal(got.log, ref.log) {
		t.Fatalf("recovered build diverged: exit %d/%d wall %d/%d actions %d/%d",
			got.exit, ref.exit, got.wall, ref.wall, got.actions, ref.actions)
	}
}

// TestCheckpointPinSurvivesPressure: with a one-slot checkpoint cache, every
// older seal is evicted — but the in-flight job's freshest seal is pinned,
// so a crash still restores from checkpoint instead of replaying cold.
func TestCheckpointPinSurvivesPressure(t *testing.T) {
	o := &Options{Seed: 1, Checkpoints: true, sealCap: 1}
	ref, got := crashOne(t, o, func(ref dtRun, _ []int64) reprotest.FaultPlan {
		return reprotest.FaultPlan{CrashAtAction: ref.actions / 2}
	})
	assertSameBits(t, ref, got)
	fst := o.FaultStats()
	if fst.Crashes != 1 || fst.Restores != 1 || fst.ColdReplays != 0 {
		t.Fatalf("want exactly one checkpoint restore: %+v", fst)
	}
	if fst.CkptEvictions == 0 {
		t.Fatalf("one-slot cache saw no evictions — pressure never happened: %+v", fst)
	}
}

// TestCorruptSealFallsBackToOlder: the freshest seal is corrupted, so
// validation rejects it and recovery restores from the next-older seal —
// redoing more work, landing on the same bits.
func TestCorruptSealFallsBackToOlder(t *testing.T) {
	o := &Options{Seed: 1, Checkpoints: true}
	ref, got := crashOne(t, o, func(_ dtRun, seals []int64) reprotest.FaultPlan {
		// Corrupt the seal that will be freshest at the crash; the Invalid
		// assertion below fails loudly if the aim drifts.
		crashAt, freshest := lastGapCrash(seals)
		return reprotest.FaultPlan{CrashAtAction: crashAt, CorruptCheckpoint: freshest}
	})
	assertSameBits(t, ref, got)
	fst := o.FaultStats()
	if fst.Invalid != 1 {
		t.Fatalf("corrupted seal was never offered to a restore: %+v", fst)
	}
	if fst.Restores != 1 || fst.ColdReplays != 0 {
		t.Fatalf("want a fallback restore from the older seal: %+v", fst)
	}
}

// TestRetryExhaustionDegradesToColdReplay: a lost restore attempt plus a
// corrupted seal exhaust a two-attempt budget, so recovery degrades to a
// cold replay — and still lands on the reference bits.
func TestRetryExhaustionDegradesToColdReplay(t *testing.T) {
	o := &Options{Seed: 1, Checkpoints: true, restoreRetries: 2}
	ref, got := crashOne(t, o, func(_ dtRun, seals []int64) reprotest.FaultPlan {
		crashAt, freshest := lastGapCrash(seals)
		return reprotest.FaultPlan{
			CrashAtAction: crashAt, CorruptCheckpoint: freshest, FailRestore: true,
		}
	})
	assertSameBits(t, ref, got)
	fst := o.FaultStats()
	if fst.RestoreFailed != 1 || fst.Invalid != 1 {
		t.Fatalf("faults did not consume the retry budget: %+v", fst)
	}
	if fst.ColdReplays != 1 || fst.Restores != 0 {
		t.Fatalf("want degradation to exactly one cold replay: %+v", fst)
	}
}

// TestInjectedRestoreFailureRetries: a planned restore failure consumes one
// bounded retry and the next attempt restores the same seal.
func TestInjectedRestoreFailureRetries(t *testing.T) {
	o := &Options{Seed: 1, Checkpoints: true}
	ref, got := crashOne(t, o, func(ref dtRun, _ []int64) reprotest.FaultPlan {
		return reprotest.FaultPlan{CrashAtAction: ref.actions / 2, FailRestore: true}
	})
	assertSameBits(t, ref, got)
	fst := o.FaultStats()
	if fst.RestoreFailed != 1 || fst.Restores != 1 || fst.Attempts != 2 {
		t.Fatalf("want fail-then-restore in two attempts: %+v", fst)
	}
	if fst.BackoffNs != BackoffBaseNs+2*BackoffBaseNs {
		t.Fatalf("backoff not exponential: %d", fst.BackoffNs)
	}
}

// TestRunFaultStudy pins the X15 headline: every crashed package recovers to
// the reference bits, and checkpoint restores redo less work than replays.
func TestRunFaultStudy(t *testing.T) {
	st := (&Options{Seed: 3, Jobs: 2}).RunFaultStudy(debpkg.Universe(3, 6))
	if st.Packages == 0 || st.Crashed == 0 {
		t.Fatalf("study crashed nothing: %+v", st)
	}
	if st.Identical != st.Crashed {
		t.Fatalf("recovery changed bits: %d/%d identical", st.Identical, st.Crashed)
	}
	if st.Restores == 0 {
		t.Fatalf("no checkpoint restores: %+v", st)
	}
	if st.Speedup <= 1 {
		t.Fatalf("recovery no faster than replay: %+v", st)
	}
	t.Logf("%s", st)
}
