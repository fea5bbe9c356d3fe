// Crash-consistent checkpointing and deterministic fault injection for the
// build farm: the robustness half of the evaluation.
//
// In checkpoint mode every DetTrace build runs its driver as a trampoline
// (workload.dpkgBuildpackageMain): at each build-phase boundary the driver
// journals its progress and self-execs, handing the kernel a quiescent
// traced stop to seal a restorable checkpoint at. Seals land in a bounded
// farm-wide derivation store, which pins each in-flight job's freshest seal
// so pressure can never evict the one checkpoint a crash is about to need.
//
// Faults are scheduled on the container's logical clock (reprotest.FaultPlan
// — an action count to die at, a checkpoint ordinal to corrupt, a restore
// attempt to lose), so every failure is exactly reproducible. A crashed job
// restores from its freshest valid seal with bounded retries and
// exponential virtual-time backoff, falling back to older seals on
// validation failure and to a full cold replay when no usable seal remains.
// The determinism contract makes every path land on the same bits: a
// resumed run is bitwise-identical to the uninterrupted run (pinned in
// internal/core), and a cold replay is just the uninterrupted run — so the
// farm's output is DeepEqual with faults on and off, which faults_test.go
// pins across worker-pool sizes.
package buildsim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/reprotest"
	"repro/internal/stats"
)

// checkpointRetries bounds restore attempts per crashed job on the local
// pool; exhausting it degrades the recovery to a cold replay.
const checkpointRetries = 3

// sealCap bounds the farm's local seal store. Checkpoints pin a full
// filesystem clone each, so the cap is deliberately modest: builds seal a
// handful of ordinals and only in-flight jobs ever read them back. The store
// never evicts an in-flight job's freshest seal, so eviction can only cost
// older fallback seals — a job that needs one after losing its freshest to
// corruption steps further down, and in the end to a cold replay.
const sealCap = 32

// BackoffBaseNs is the first retry's virtual-time backoff; each further
// attempt doubles it. The backoff is recovery bookkeeping (it models the
// farm scheduler waiting out a flaky worker) charged to farm_backoff_ns —
// it never advances any container's clock, so results cannot see it.
const BackoffBaseNs = int64(250 * 1e6)

// checkpointEnv is containerEnv plus the trampoline gate: checkpoint-mode
// builds are their own equivalence class, compared only against other
// checkpoint-mode builds.
var checkpointEnv = append(append([]string{}, containerEnv...), "DETTRACE_CHECKPOINT=1")

// ckptJob is one checkpointed build's window into the derivation store: the
// (state, job) its seals file under — the same derive.SealKey scheme on the
// local pool and on a farm worker — the store a cold replay forks its
// template from, and how hard recovery tries before replaying cold.
type ckptJob struct {
	templates, seals derive.Store
	state            derive.Key
	job              uint64
	// retries bounds restore attempts, each charged an exponential virtual
	// backoff (the local pool waiting out a flaky worker). Zero steps down
	// through every ordinal with no backoff: on the farm the coordinator has
	// already re-placed the job, so there is nobody left to wait for.
	retries int
}

// sealSink is the farm's one CheckpointSink: it files every seal a run takes
// under (state, job) in store and books it. The sink runs inside the
// container's kernel loop (single-threaded per job). Seal sizes are booked
// here at the farm layer — never inside core.sealCheckpoint — because
// attaching a sink must not perturb a run's own metrics registry (the
// bitwise equivalence tests compare those): a delta seal costs the bytes
// dirtied since the previous seal, a full seal its whole tree.
func (o *Options) sealSink(l obs.Local, store derive.Store, state derive.Key, job uint64) func(*core.Checkpoint) {
	return func(cp *core.Checkpoint) {
		sc := o.sc()
		sc.ckptSealed.Add(l, 1)
		if st := cp.Kernel().FSSealStats(); st.Delta {
			sc.ckptDeltaBytes.Add(l, st.FreshBytes)
		} else {
			sc.ckptFullBytes.Add(l, st.TotalBytes)
		}
		store.PutSeal(derive.SealKey{State: state, Job: job, Ordinal: cp.Ordinal()}, cp, cp.Digest())
	}
}

// crashed reports whether the run died to an injected crash.
func crashed(res *core.Result) bool {
	return errors.Is(res.Err, kernel.ErrInjectedCrash)
}

// buildDTFault runs one checkpoint-mode DetTrace build under plan. A zero
// plan is the fault-free checkpointed build: same trampoline, same seals,
// no crash. Otherwise the run dies at the planned action and is recovered
// through recoverJob; either way the returned observables must be the bits
// the uninterrupted run would have produced.
func (o *Options) buildDTFault(l obs.Local, spec *debpkg.Spec, plan reprotest.FaultPlan, cfg core.Config, img *fs.Image, imgHash uint64, pkgdir string) dtRun {
	st := o.stores()
	j := ckptJob{templates: st.templates, seals: st.seals,
		state: derive.KeyFor(imgHash, core.ConfigHash(cfg)), job: o.jobSeq.Add(1),
		retries: checkpointRetries}
	if o.restoreRetries > 0 {
		j.retries = o.restoreRetries
	}
	defer st.seals.Release(j.state, j.job)

	cfg.CheckpointSink = o.sealSink(l, j.seals, j.state, j.job)
	runCfg := cfg
	runCfg.FaultInjectCrash = plan.CrashAtAction
	runCfg.FaultCorruptCheckpoint = plan.CorruptCheckpoint
	res := o.runContainer(l, runCfg, img, imgHash, checkpointEnv)
	if crashed(res) {
		o.sc().crashes.Add(l, 1)
		res, _ = o.recoverJob(l, j, plan.FailRestore, cfg, img, imgHash, checkpointEnv, res.WallTime)
	}
	return dtRunFrom(res, spec, pkgdir)
}

// recoverJob brings a crashed job back: restore from the freshest seal,
// stepping down to older seals when one is gone or validation rejects it,
// within the job's retry budget, and degrading to a cold replay when no seal
// survives. Every exit produces the uninterrupted run's bits. cfg is the
// job's clean config — sink attached, fault knobs clear: the replacement
// worker must finish the build, not re-die, and checkpoint validation
// (core.Resume's recoveryHash) accounts for the cleared crash knob.
// crashWall is the crashed run's virtual time of death; the gap between it
// and the restored seal is the work executed twice, charged to
// farm_redone_ns. Returns the ordinal restored from (0 = cold replay).
func (o *Options) recoverJob(l obs.Local, j ckptJob, failRestore bool, cfg core.Config, img *fs.Image, imgHash uint64, env []string, crashWall int64) (*core.Result, int) {
	sc := o.sc()
	ordinal := j.seals.Latest(j.state, j.job)
	for attempt := 0; ordinal > 0 && (j.retries == 0 || attempt < j.retries); attempt++ {
		sc.restoreAttempts.Add(l, 1)
		if j.retries > 0 {
			sc.backoffNs.Add(l, BackoffBaseNs<<attempt)
		}
		if failRestore && attempt == 0 {
			sc.restoreFailures.Add(l, 1)
			continue // planned restore failure: same seal, next attempt
		}
		v, _, _ := j.seals.Seal(derive.SealKey{State: j.state, Job: j.job, Ordinal: ordinal})
		cp, _ := v.(*core.Checkpoint)
		if cp == nil {
			ordinal-- // evicted under pressure, or a transport without bodies
			continue
		}
		res, err := core.Resume(cp, registry(), cfg)
		if err != nil {
			sc.ckptInvalid.Add(l, 1)
			ordinal-- // corrupt or mismatched seal: fall back one ordinal
			continue
		}
		sc.restores.Add(l, 1)
		sc.mttrNs.Add(l, res.WallTime-cp.VirtualNow())
		sc.redoneNs.Add(l, crashWall-cp.VirtualNow())
		return res, ordinal
	}
	sc.coldReplays.Add(l, 1)
	res := o.runContainerFrom(l, j.templates, cfg, img, imgHash, env)
	sc.replayNs.Add(l, res.WallTime)
	sc.redoneNs.Add(l, crashWall)
	return res, 0
}

// FaultStats is a point-in-time snapshot of the farm's fault-plane
// accounting. Benchmarking metadata only, like SetupStats.
type FaultStats struct {
	Sealed        int64 // checkpoints sealed across all builds
	CkptEvictions int64 // seals evicted from the local store under pressure
	Crashes       int64 // injected crashes that fired
	Attempts      int64 // restore attempts, including failed ones
	Restores      int64 // successful checkpoint restores
	RestoreFailed int64 // injected restore failures
	Invalid       int64 // seals rejected by validation (corruption, mismatch)
	ColdReplays   int64 // recoveries degraded to a full replay
	BackoffNs     int64 // virtual time spent backing off between attempts
	MTTRNs        int64 // crash-to-completion virtual time across restores
	ReplayNs      int64 // crash-to-completion virtual time across cold replays
	RedoneNs      int64 // virtual work executed twice (crash point - restore point)
}

// FaultStats snapshots the farm's fault accounting so far.
func (o *Options) FaultStats() FaultStats {
	sc := o.sc()
	return FaultStats{
		Sealed:        sc.ckptSealed.Value(),
		CkptEvictions: sc.ckptEvictions.Value(),
		Crashes:       sc.crashes.Value(),
		Attempts:      sc.restoreAttempts.Value(),
		Restores:      sc.restores.Value(),
		RestoreFailed: sc.restoreFailures.Value(),
		Invalid:       sc.ckptInvalid.Value(),
		ColdReplays:   sc.coldReplays.Value(),
		BackoffNs:     sc.backoffNs.Value(),
		MTTRNs:        sc.mttrNs.Value(),
		ReplayNs:      sc.replayNs.Value(),
		RedoneNs:      sc.redoneNs.Value(),
	}
}

// FaultStudy is the X15 recovery experiment: every package built
// checkpointed and fault-free for reference, then crashed mid-build and
// recovered. Identical must equal Crashed — recovery is a robustness
// mechanism, not a semantic one — and the MTTR column is the headline: how
// much virtual work a checkpoint restore redoes versus a cold replay.
type FaultStudy struct {
	Packages  int `json:"packages"`            // packages whose reference build completed
	Crashed   int `json:"crashed"`             // packages whose planned crash fired
	Identical int `json:"recovered_identical"` // crashed packages recovered to the reference bits

	Restores    int64 `json:"checkpoint_restores"` // recoveries via checkpoint restore
	ColdReplays int64 `json:"cold_replays"`        // recoveries via full replay

	AvgMTTRNs   float64 `json:"avg_mttr_ns"`   // crash-to-completion virtual time per restore
	AvgReplayNs float64 `json:"avg_replay_ns"` // crash-to-completion virtual time for a cold replay
	AvgRedoneNs float64 `json:"avg_redone_ns"` // virtual work executed twice, per recovery
	Speedup     float64 `json:"mttr_speedup"`  // replay/MTTR: the recovery headline
}

// OK is the study's oracle: every crashed build recovered to the reference
// bits.
func (st *FaultStudy) OK() bool { return st.Identical == st.Crashed }

// String renders the study summary.
func (st *FaultStudy) String() string {
	return fmt.Sprintf(
		"packages: %d; crashed mid-build: %d; recovered bitwise-identical: %s\n"+
			"recoveries: %d checkpoint restores, %d cold replays\n"+
			"MTTR: %.1f s virtual to completion per restore vs %.1f s full replay (%.1fx less)\n"+
			"work executed twice: %.1f s virtual per recovery (chunk granularity)",
		st.Packages, st.Crashed, stats.Pct(st.Identical, st.Crashed),
		st.Restores, st.ColdReplays,
		st.AvgMTTRNs/1e9, st.AvgReplayNs/1e9, st.Speedup,
		st.AvgRedoneNs/1e9)
}

// crashAndRecover builds spec on the checkpointing farm o uninterrupted, then
// again with a crash injected at action n (n <= 0 picks the reference run's
// midpoint) and recovered. A reference that did not complete is returned
// alone.
func (o *Options) crashAndRecover(l obs.Local, spec *debpkg.Spec, n int64) (ref, got dtRun, at int64) {
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	ref = o.buildDT(l, spec, seed, v1, nil)
	if v, _ := ref.verdict(); v != "" {
		return ref, dtRun{}, 0
	}
	if n <= 0 {
		n = ref.actions / 2
	}
	img, pkgdir, imgHash := o.pkgImage(l, spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v1)
	got = o.buildDTFault(l, spec, reprotest.FaultPlan{CrashAtAction: n}, cfg, img, imgHash, pkgdir)
	return ref, got, n
}

// RunFaultStudy builds each spec twice in checkpoint mode — uninterrupted,
// then crashed at half its reference action count and recovered — and
// compares the recovered observables bitwise against the reference.
func (o *Options) RunFaultStudy(specs []*debpkg.Spec) *FaultStudy {
	on := o.derive(func(f *Options) { f.Checkpoints = true })
	type fOut struct {
		ok, crashed, identical bool
		refWall                int64
	}
	outs := make([]fOut, len(specs))
	o.forEach(len(specs), func(l obs.Local, i int) {
		before := on.FaultStats().Crashes
		ref, got, _ := on.crashAndRecover(l, specs[i], 0)
		if v, _ := ref.verdict(); v != "" {
			return
		}
		outs[i] = fOut{
			ok:        true,
			crashed:   on.FaultStats().Crashes > before,
			identical: got.same(ref, movesNothing),
			refWall:   ref.wall,
		}
	})
	st := &FaultStudy{}
	var replaySum int64
	for _, fo := range outs {
		if !fo.ok {
			continue
		}
		st.Packages++
		if fo.crashed {
			st.Crashed++
			replaySum += fo.refWall
		}
		if fo.crashed && fo.identical {
			st.Identical++
		}
	}
	fst := on.FaultStats()
	st.Restores, st.ColdReplays = fst.Restores, fst.ColdReplays
	if fst.Restores > 0 {
		st.AvgMTTRNs = float64(fst.MTTRNs) / float64(fst.Restores)
	}
	if n := fst.Restores + fst.ColdReplays; n > 0 {
		st.AvgRedoneNs = float64(fst.RedoneNs) / float64(n)
	}
	if st.Crashed > 0 {
		st.AvgReplayNs = float64(replaySum) / float64(st.Crashed)
	}
	if st.AvgMTTRNs > 0 {
		st.Speedup = st.AvgReplayNs / st.AvgMTTRNs
	}
	return st
}

// CrashRecovery is the single-package crash gate behind
// `reprotest -inject-crash N`: build the package checkpointed and
// uninterrupted, crash a second run at action n (n <= 0 picks the midpoint),
// recover it, and compare bitwise. The report is human-readable; ok is the
// machine verdict.
func (o *Options) CrashRecovery(spec *debpkg.Spec, n int64) (report string, ok bool) {
	on := o.derive(func(f *Options) { f.Checkpoints = true })
	ref, got, n := on.crashAndRecover(obs.NewLocal(), spec, n)
	if v, _ := ref.verdict(); v != "" {
		return fmt.Sprintf("reference build did not complete: %s", v), false
	}
	fst := on.FaultStats()
	ok = got.same(ref, movesNothing)
	verdict := "bitwise-identical to the uninterrupted build"
	if !ok {
		verdict = "DIVERGED from the uninterrupted build"
	}
	how := "completed before the crash point"
	switch {
	case fst.Restores > 0:
		how = fmt.Sprintf("restored from checkpoint, %.1f s virtual redone of %.1f s",
			float64(fst.RedoneNs)/1e9, float64(ref.wall)/1e9)
	case fst.ColdReplays > 0:
		how = "recovered by cold replay"
	}
	report = fmt.Sprintf(
		"reference: %d actions, %.3f s virtual; %d checkpoints sealed across runs\n"+
			"crash injected at action %d: %s\n"+
			"recovered run %s",
		ref.actions, float64(ref.wall)/1e9, fst.Sealed, n, how, verdict)
	return report, ok
}
