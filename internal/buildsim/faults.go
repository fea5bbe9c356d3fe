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
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/kernel"
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
func (o *Options) sealSink(store derive.Store, state derive.Key, job uint64) func(*core.Checkpoint) {
	return func(cp *core.Checkpoint) {
		atomic.AddInt64(&o.faults.Sealed, 1)
		if st := cp.Kernel().FSSealStats(); st.Delta {
			atomic.AddInt64(&o.ckptDeltaBytes, st.FreshBytes)
		} else {
			atomic.AddInt64(&o.ckptFullBytes, st.TotalBytes)
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
// the uninterrupted run would have produced. fired reports whether the
// planned crash fired.
func (o *Options) buildDTFault(spec *debpkg.Spec, plan reprotest.FaultPlan, cfg core.Config, img *fs.Image, imgHash uint64, pkgdir string) (run dtRun, fired bool) {
	st := o.stores()
	j := ckptJob{templates: st.templates, seals: st.seals,
		state: derive.KeyFor(imgHash, core.ConfigHash(cfg)), job: o.jobSeq.Add(1),
		retries: checkpointRetries}
	if o.restoreRetries > 0 {
		j.retries = o.restoreRetries
	}
	defer st.seals.Release(j.state, j.job)

	cfg.CheckpointSink = o.sealSink(j.seals, j.state, j.job)
	runCfg := cfg
	runCfg.FaultInjectCrash = plan.CrashAtAction
	runCfg.FaultCorruptCheckpoint = plan.CorruptCheckpoint
	res := o.runContainer(runCfg, img, imgHash, checkpointEnv)
	if fired = crashed(res); fired {
		atomic.AddInt64(&o.faults.Crashes, 1)
		res, _ = o.recoverJob(j, plan.FailRestore, cfg, img, imgHash, checkpointEnv, res.WallTime)
	}
	return dtRunFrom(res, spec, pkgdir), fired
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
func (o *Options) recoverJob(j ckptJob, failRestore bool, cfg core.Config, img *fs.Image, imgHash uint64, env []string, crashWall int64) (*core.Result, int) {
	f := &o.faults
	ordinal := j.seals.Latest(j.state, j.job)
	for attempt := 0; ordinal > 0 && (j.retries == 0 || attempt < j.retries); attempt++ {
		atomic.AddInt64(&f.Attempts, 1)
		if j.retries > 0 {
			atomic.AddInt64(&f.BackoffNs, BackoffBaseNs<<attempt)
		}
		if failRestore && attempt == 0 {
			atomic.AddInt64(&f.RestoreFailed, 1)
			continue // planned restore failure: same seal, next attempt
		}
		v, _, _ := j.seals.Seal(derive.SealKey{State: j.state, Job: j.job, Ordinal: ordinal})
		cp, _ := v.(*core.Checkpoint)
		if cp == nil {
			ordinal-- // evicted under pressure
			continue
		}
		res, err := core.Resume(cp, registry(), cfg)
		if err != nil {
			atomic.AddInt64(&f.Invalid, 1)
			ordinal-- // corrupt or mismatched seal: fall back one ordinal
			continue
		}
		atomic.AddInt64(&f.Restores, 1)
		atomic.AddInt64(&f.MTTRNs, res.WallTime-cp.VirtualNow())
		atomic.AddInt64(&f.RedoneNs, crashWall-cp.VirtualNow())
		return res, ordinal
	}
	atomic.AddInt64(&f.ColdReplays, 1)
	res := o.runContainerFrom(j.templates, cfg, img, imgHash, env)
	atomic.AddInt64(&f.ReplayNs, res.WallTime)
	atomic.AddInt64(&f.RedoneNs, crashWall)
	return res, 0
}

// FaultStats is the farm's fault-plane accounting. Benchmarking metadata
// only, like SetupStats.
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

// FaultStats returns a copy of the farm's fault counts. Call it once
// BuildAll or the study has returned, like SetupStats.
func (o *Options) FaultStats() FaultStats { return o.faults }

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

	// diverged counts packages whose second run — crashed and recovered, or
	// finished before the crash point — missed the reference bits.
	diverged int
}

// OK is the study's oracle: every second run, crashed or not, landed on the
// reference bits.
func (st *FaultStudy) OK() bool { return st.Identical == st.Crashed && st.diverged == 0 }

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

// faultCell is one X15 cell: a package's checkpointed reference build and
// its second run, crashed at a planned action and recovered.
type faultCell struct {
	ref                Verdict // the reference build's failure verdict ("" = completed)
	refWall            int64
	crashed, identical bool
}

// faultCell builds spec on the checkpointing farm o uninterrupted, then
// again with a crash injected at action n (n <= 0 picks the reference run's
// midpoint) and recovered, and compares the two bitwise. A reference that
// did not complete ends the cell.
func (o *Options) faultCell(spec *debpkg.Spec, n int64) faultCell {
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	ref := o.buildDT(spec, seed, v1, nil)
	c := faultCell{refWall: ref.wall}
	if c.ref, _ = ref.verdict(); c.ref != "" {
		return c
	}
	if n <= 0 {
		n = ref.actions / 2
	}
	img, pkgdir, imgHash := o.pkgImage(spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v1)
	var got dtRun
	got, c.crashed = o.buildDTFault(spec, reprotest.FaultPlan{CrashAtAction: n}, cfg, img, imgHash, pkgdir)
	c.identical = got.same(ref, core.MovesNothing)
	return c
}

// faultStudy runs one X15 cell per spec, each crashed at action n (<= 0:
// its midpoint), on a checkpointing farm derived from o, and aggregates
// them with that farm's recovery accounting.
func (o *Options) faultStudy(specs []*debpkg.Spec, n int64) *FaultStudy {
	on := o.derive(func(f *Options) { f.Checkpoints = true })
	cells := make([]faultCell, len(specs))
	o.forEach(len(specs), func(i int) { cells[i] = on.faultCell(specs[i], n) })
	st := &FaultStudy{}
	var replaySum int64
	for _, c := range cells {
		if c.ref != "" {
			continue
		}
		st.Packages++
		if !c.identical {
			st.diverged++
		}
		if c.crashed {
			st.Crashed++
			replaySum += c.refWall
			if c.identical {
				st.Identical++
			}
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

// RunFaultStudy builds each spec twice in checkpoint mode — uninterrupted,
// then crashed at half its reference action count and recovered — and
// compares the recovered observables bitwise against the reference.
func (o *Options) RunFaultStudy(specs []*debpkg.Spec) *FaultStudy { return o.faultStudy(specs, 0) }

// gateVerdict is a reprotest gate's answer from the one-package study it
// ran: the study's report and oracle, failing when the package never reached
// the study's judge (judged == 0) because its reference build did not
// complete.
func gateVerdict(st interface {
	fmt.Stringer
	OK() bool
}, judged int) (report string, ok bool) {
	if judged == 0 {
		return "reference build did not complete\n" + st.String(), false
	}
	return st.String(), st.OK()
}

// CrashRecovery is the single-package crash gate behind
// `reprotest -inject-crash N`: the X15 study's cell for one package crashed
// at action n (n <= 0 picks the midpoint). The report is human-readable; ok
// is the machine verdict.
func (o *Options) CrashRecovery(spec *debpkg.Spec, n int64) (report string, ok bool) {
	st := o.faultStudy([]*debpkg.Spec{spec}, n)
	return gateVerdict(st, st.Packages)
}
