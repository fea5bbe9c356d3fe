// Incremental rebuilds on the unified derivation store (ISSUE 8).
//
// A checkpointed build leaves a trail of derived artifacts in the store —
// one seal per quiescent stop, content-addressed by (image hash, config
// hash, job, ordinal). After a source patch, the rebuild does not start
// over: it diffs the patched tree's Merkle leaves against the base build's
// (fs.Image.TreeHash), maps the dirty leaves through the package's declared
// input sets (debpkg.InputSets), and asks derive.PlanRebuild for the
// freshest seal whose sealed prefix read none of the dirty files. That seal
// is forked — core.ResumePatched amends the dirty bytes into the restored
// filesystem before any guest instruction runs — and only the suffix
// executes: the un-run phases plus the compile units whose input-set leaves
// changed. Everything the seal already built (chunked make's object tree is
// the progress record) is reused from the derivation store.
//
// The correctness gate is the repo's standing oracle: the incremental
// rebuild must be bitwise-identical to a cold build of the patched tree —
// same .deb, same log, same exit, same virtual time. Whenever the planner
// cannot prove a seal's prefix clean (tree shape changed, an unclaimed path
// went dirty, every prefix read a patched file) the rebuild degrades to that
// cold build, trading time for the same bits. The DisableIncremental
// ablation is joined into the config hash, so cached state can never cross
// the ablation: incremental-on and incremental-off runs occupy disjoint key
// spaces while producing identical outputs.
package buildsim

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/obs"
	"repro/internal/reprotest"
	"repro/internal/stats"
)

// incrJobBit tags rebuild job identities so their seal keys can never
// collide with the distributed farm's job IDs (1..len(specs)) when both
// publish into the same shard store. PutSeal is first-wins, so a collision
// would silently serve another job's seals.
const incrJobBit = uint64(1) << 32

// rebuildSession is one package's incremental-rebuild state: the current
// source tree, its derivation key, and the job whose seals the next patch
// may fork. Each successful rebuild advances the session, so chained patch
// schedules diff each round against the tree the previous round built.
type rebuildSession struct {
	spec   *debpkg.Spec
	store  derive.Store
	img    *fs.Image
	pkgdir string
	state  derive.Key
	job    uint64
	tree   derive.TreeHash
	seed   uint64
	v      reprotest.Variation
}

func (s *rebuildSession) advance(img *fs.Image, tree derive.TreeHash, state derive.Key, job uint64) {
	s.img, s.tree, s.state, s.job = img, tree, state, job
}

// buildIncrBase runs the package's base build in checkpoint mode with every
// seal published to the store, and opens the rebuild session subsequent
// patches fork from.
func (o *Options) buildIncrBase(l obs.Local, spec *debpkg.Spec, seed uint64, v reprotest.Variation, store derive.Store) (*rebuildSession, dtRun) {
	img, pkgdir, imgHash := o.pkgImage(l, spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v)
	s := &rebuildSession{spec: spec, store: store, img: img, pkgdir: pkgdir,
		state: derive.KeyFor(imgHash, core.ConfigHash(cfg)),
		job:   incrJobBit | o.jobSeq.Add(1),
		tree:  img.TreeHash(), seed: seed, v: v}
	runCfg := cfg
	runCfg.CheckpointSink = o.sealSink(l, store, s.state, s.job)
	res := o.runContainer(l, runCfg, img, imgHash, checkpointEnv)
	return s, dtRunFrom(res, spec, pkgdir)
}

// patchBytes is a shape-preserving content edit: the last decimal digit is
// bumped (wrapping), falling back to a low-bit flip of the last byte. Every
// materialized source carries digits, so repeated rounds keep producing
// fresh content without touching the tree shape.
func patchBytes(data []byte) []byte {
	out := append([]byte(nil), data...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] = '0' + (out[i]-'0'+1)%10
			return out
		}
	}
	if len(out) > 0 {
		out[len(out)-1] ^= 1
		return out
	}
	return []byte{'x'}
}

// patchImage clones img and edits each named path's content in place.
// Unknown paths are ignored — the planner sees exactly the leaves that
// actually moved.
func patchImage(img *fs.Image, paths ...string) *fs.Image {
	out := img.Clone()
	for _, p := range paths {
		e, ok := out.Entries[p]
		if !ok {
			continue
		}
		e.Data = patchBytes(e.Data)
		out.Entries[p] = e
	}
	return out
}

// sealInfos reads the job's seal trail out of the derivation store and
// derives each seal's rebuild-planning record from its sealed filesystem.
// Seals whose stored digest no longer matches their body — and transports
// that carry digests without bodies — are skipped: the planner only ever
// sees seals that could actually be forked.
func sealInfos(store derive.Store, state derive.Key, job uint64, pkgdir string) ([]derive.SealInfo, map[int]*core.Checkpoint) {
	latest := store.Latest(state, job)
	var infos []derive.SealInfo
	seals := make(map[int]*core.Checkpoint, latest)
	for ord := 1; ord <= latest; ord++ {
		v, digest, ok := store.Seal(derive.SealKey{State: state, Job: job, Ordinal: ord})
		if !ok {
			continue
		}
		cp, ok := v.(*core.Checkpoint)
		if !ok || cp.Digest() != digest {
			continue
		}
		infos = append(infos, cp.RebuildInfo(pkgdir))
		seals[ord] = cp
	}
	return infos, seals
}

// RebuildStats describes how one rebuild executed: which seal it forked,
// how the units split between reuse and re-execution, and what the rebuild
// cost in virtual time against the cold alternative. Benchmarking metadata
// only — the bits are identical either way.
type RebuildStats struct {
	Cold        bool // no seal was forkable: full rebuild
	SealOrdinal int  // seal forked (0 when cold)
	DirtyFiles  int  // tree leaves the patch moved
	UnitsTotal  int
	UnitsReused int // objects reused from the forked seal
	UnitsRedone int // units the suffix re-executed

	RebuildNs int64 // virtual work the rebuild executed (suffix only when forked)
	ColdNs    int64 // the run's full virtual time — what a cold rebuild costs
}

// incrementalRebuild rebuilds the session's package for the patched image
// pimg, forking the freshest valid seal when the planner allows it and
// degrading to a cold build otherwise (including under the ablation). The
// session advances to the patched tree either way, so chained schedules
// keep diffing against the tree actually built last.
func (o *Options) incrementalRebuild(l obs.Local, s *rebuildSession, pimg *fs.Image) (dtRun, RebuildStats) {
	sc := o.sc()
	ptree := pimg.TreeHash()
	pcfg := o.dtConfig(pimg, s.pkgdir, s.seed, s.v)
	pstate := derive.KeyFor(pimg.Hash(), core.ConfigHash(pcfg))
	pjob := incrJobBit | o.jobSeq.Add(1)

	cold := func(st RebuildStats) (dtRun, RebuildStats) {
		sc.incrCold.Add(l, 1)
		o.recordDerive(l, false, deriveGranPhase, s.state.Hash(), 0)
		runCfg := pcfg
		runCfg.CheckpointSink = o.sealSink(l, s.store, pstate, pjob)
		res := o.runContainer(l, runCfg, pimg, pimg.Hash(), checkpointEnv)
		r := dtRunFrom(res, s.spec, s.pkgdir)
		s.advance(pimg, ptree, pstate, pjob)
		st.Cold, st.SealOrdinal = true, 0
		st.UnitsTotal, st.UnitsReused, st.UnitsRedone = s.spec.Units, 0, s.spec.Units
		st.RebuildNs, st.ColdNs = r.wall, r.wall
		return r, st
	}

	if !o.Incremental {
		return cold(RebuildStats{})
	}

	infos, seals := sealInfos(s.store, s.state, s.job, s.pkgdir)
	plan := derive.PlanRebuild(s.tree, ptree, debpkg.InputSets(s.spec, s.pkgdir), infos)
	st := RebuildStats{SealOrdinal: plan.Ordinal, DirtyFiles: len(plan.Dirty),
		UnitsTotal:  s.spec.Units,
		UnitsReused: len(plan.Reused), UnitsRedone: s.spec.Units - len(plan.Reused)}
	cp := seals[plan.Ordinal]
	if plan.Cold || cp == nil {
		return cold(RebuildStats{DirtyFiles: len(plan.Dirty)})
	}

	patch := make(map[string][]byte, len(plan.Dirty))
	for _, p := range plan.Dirty {
		patch[p] = append([]byte(nil), pimg.Entries[p].Data...)
	}
	runCfg := pcfg
	runCfg.CheckpointSink = o.sealSink(l, s.store, pstate, pjob)
	res, err := core.ResumePatched(cp, registry(), runCfg, patch)
	if err != nil {
		// The seal and the patch disagree (shape drift, config mismatch):
		// the plan was unusable after all. Cold is always sound.
		sc.ckptInvalid.Add(l, 1)
		return cold(RebuildStats{DirtyFiles: len(plan.Dirty)})
	}
	sc.incrRebuilds.Add(l, 1)
	sc.deriveUnitsReused.Add(l, int64(st.UnitsReused))
	sc.deriveUnitsRedone.Add(l, int64(st.UnitsRedone))
	o.recordDerive(l, true, deriveGranPhase, s.state.Hash(), int32(plan.Ordinal))
	o.recordDerive(l, true, deriveGranUnit, s.state.Hash(), int32(st.UnitsReused))
	if st.UnitsRedone > 0 {
		o.recordDerive(l, false, deriveGranUnit, pstate.Hash(), int32(st.UnitsRedone))
	}
	o.Obs().Absorb(res.Obs)
	r := dtRunFrom(res, s.spec, s.pkgdir)
	st.RebuildNs = r.wall - cp.VirtualNow()
	st.ColdNs = r.wall
	s.advance(pimg, ptree, pstate, pjob)
	return r, st
}

// runPatchedCold is the oracle build: a cold checkpoint-mode run of an
// explicit (patched) image, no derivation-store involvement. An incremental
// rebuild is correct iff it lands on this run's exact bits.
func (o *Options) runPatchedCold(l obs.Local, spec *debpkg.Spec, pimg *fs.Image, pkgdir string, seed uint64, v reprotest.Variation) dtRun {
	cfg := o.dtConfig(pimg, pkgdir, seed, v)
	res := o.runContainer(l, cfg, pimg, pimg.Hash(), checkpointEnv)
	return dtRunFrom(res, spec, pkgdir)
}

// RoundResult is one patch round's build observables — the comparison
// payload of the incremental-equivalence property (exit, virtual time,
// .deb, build log). RebuildStats travel separately: reuse accounting
// legitimately differs across the ablation while these bytes must not.
type RoundResult struct {
	Exit int
	Wall int64
	Deb  []byte
	Log  []byte
}

func roundOf(r dtRun) RoundResult {
	return RoundResult{Exit: r.exit, Wall: r.wall, Deb: r.deb, Log: r.log}
}

// patchSchedule derives the deterministic chained patch schedule for one
// package: reprotest.PatchFor picks 1-3 candidate files per round. With
// unitsOnly the candidates are the compile units and each round is trimmed
// to a single file — X18's "one-file patch" shape; otherwise the Makefile,
// debian/rules and a header join the pool, so random dirty subsets also
// exercise the shared- and phase-input invalidation classes.
func patchSchedule(spec *debpkg.Spec, pkgdir string, seed uint64, rounds int, unitsOnly bool) [][]string {
	var cand []string
	for u := 0; u < spec.Units; u++ {
		cand = append(cand, fmt.Sprintf("%s/src/unit%03d.c", pkgdir, u))
	}
	if !unitsOnly {
		cand = append(cand, pkgdir+"/Makefile", pkgdir+"/debian/rules")
		if spec.Headers > 0 {
			cand = append(cand, pkgdir+"/include/h000.h")
		}
	}
	sched := make([][]string, 0, rounds)
	for _, round := range reprotest.PatchFor(seed, len(cand), rounds) {
		if unitsOnly {
			round = round[:1]
		}
		paths := make([]string, 0, len(round))
		for _, i := range round {
			paths = append(paths, cand[i])
		}
		sched = append(sched, paths)
	}
	return sched
}

// RebuildRounds drives one package through a chained patch schedule: base
// build into the store, then per round patch the current tree and rebuild —
// incrementally when o.Incremental, cold otherwise. The schedule is a pure
// function of (Seed, spec), so two Options differing only in Jobs, store
// shape or the ablation run the identical schedule and must produce
// DeepEqual []RoundResult. Returns the base run last; a failed base yields
// nil rounds.
func (o *Options) RebuildRounds(l obs.Local, spec *debpkg.Spec, store derive.Store, rounds int, unitsOnly bool) ([]RoundResult, []RebuildStats, dtRun) {
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	s, base := o.buildIncrBase(l, spec, seed, v1, store)
	if v, _ := base.verdict(); v != "" {
		return nil, nil, base
	}
	results := make([]RoundResult, 0, rounds)
	rstats := make([]RebuildStats, 0, rounds)
	for _, paths := range patchSchedule(spec, s.pkgdir, seed, rounds, unitsOnly) {
		pimg := patchImage(s.img, paths...)
		r, st := o.incrementalRebuild(l, s, pimg)
		results = append(results, roundOf(r))
		rstats = append(rstats, st)
	}
	return results, rstats, base
}

// PatchRebuild is the single-package incremental gate behind
// `reprotest -patch PKG:FILE`: build the package checkpointed, patch one
// source file (default the first compile unit), rebuild incrementally, and
// compare bitwise against a cold double build of the same patched tree. The
// double build pins that the patched tree is itself deterministic; the
// incremental run must land on those exact bits. The report is
// human-readable; ok is the machine verdict.
func (o *Options) PatchRebuild(spec *debpkg.Spec, file string) (report string, ok bool) {
	off := o.derive(func(f *Options) { f.Checkpoints, f.Incremental = true, false })
	on := off.derive(func(f *Options) { f.Incremental = true })
	l := obs.NewLocal()
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	s, base := on.buildIncrBase(l, spec, seed, v1, derive.NewMemStore())
	if v, _ := base.verdict(); v != "" {
		return fmt.Sprintf("base build did not complete: %s", v), false
	}
	if file == "" {
		file = "src/unit000.c"
	}
	path := file
	if !strings.HasPrefix(path, "/") {
		path = s.pkgdir + "/" + path
	}
	if _, present := s.img.Entries[path]; !present {
		return fmt.Sprintf("no such file in the package tree: %s", path), false
	}
	pimg := patchImage(s.img, path)
	incr, st := on.incrementalRebuild(l, s, pimg)

	c1 := off.runPatchedCold(l, spec, pimg, s.pkgdir, seed, v1)
	c2 := off.runPatchedCold(l, spec, pimg, s.pkgdir, seed, v1)
	det, match := c1.same(c2, movesNothing), incr.same(c1, movesNothing)
	ok = det && match

	how := fmt.Sprintf("forked seal ordinal %d: %d/%d units reused, %d re-executed (%.1f s virtual of %.1f s)",
		st.SealOrdinal, st.UnitsReused, st.UnitsTotal, st.UnitsRedone,
		float64(st.RebuildNs)/1e9, float64(st.ColdNs)/1e9)
	if st.Cold {
		how = "degraded to a cold rebuild (no reusable seal)"
	}
	verdict := "bitwise-identical to the cold build of the patch"
	switch {
	case !det:
		verdict = "cold double build DIVERGED (patched tree not deterministic)"
	case !match:
		verdict = "DIVERGED from the cold build of the patch"
	}
	report = fmt.Sprintf(
		"base: %.1f s virtual, %d units\n"+
			"patched %s (%d dirty leaf)\n"+
			"incremental rebuild %s\n"+
			"rebuilt run %s",
		float64(base.wall)/1e9, spec.Units,
		path, st.DirtyFiles, how, verdict)
	return report, ok
}

// IncrementalStudy is the X18 experiment: every package base-built into the
// derivation store, then patched through a random unit schedule and rebuilt
// twice — incrementally and cold. Identical must equal Rounds (the oracle);
// the headline is the rebuild-time win: virtual suffix work per forked
// rebuild versus the cold rebuild's full run.
type IncrementalStudy struct {
	Packages int `json:"packages"` // packages whose base builds completed under both farms
	Rounds   int `json:"rounds"`   // patch rounds compared (across all packages)

	Identical int `json:"identical_rounds"` // rounds bitwise-identical to the cold rebuild
	Forked    int `json:"seal_forks"`       // rounds that forked a seal
	ColdFalls int `json:"cold_falls"`       // rounds the planner sent cold

	UnitsTotal  int64 `json:"units_total"`  // compile units across forked rounds
	UnitsReused int64 `json:"units_reused"` // objects reused from forked seals
	UnitsRedone int64 `json:"units_redone"` // units re-executed in rebuild suffixes

	AvgRebuildNs float64 `json:"avg_rebuild_ns"`  // virtual work per forked rebuild
	AvgColdNs    float64 `json:"avg_cold_ns"`     // virtual time per cold rebuild
	Speedup      float64 `json:"rebuild_speedup"` // geometric-mean cold/rebuild ratio over forked rounds
}

// OK is the study's oracle: every rebuild landed on the cold rebuild's bits.
func (st *IncrementalStudy) OK() bool { return st.Identical == st.Rounds }

// String renders the study summary.
func (st *IncrementalStudy) String() string {
	return fmt.Sprintf(
		"packages: %d, %d patch rounds; bitwise-identical to cold rebuild: %s\n"+
			"rounds: %d forked a seal, %d degraded to cold\n"+
			"units: %d/%d reused from the derivation store, %d re-executed\n"+
			"rebuild time: %.1f s virtual incremental vs %.1f s cold (%.1fx geomean speedup over forked rounds)",
		st.Packages, st.Rounds, stats.Pct(st.Identical, st.Rounds),
		st.Forked, st.ColdFalls,
		st.UnitsReused, st.UnitsTotal, st.UnitsRedone,
		st.AvgRebuildNs/1e9, st.AvgColdNs/1e9, st.Speedup)
}

// RunIncrementalStudy runs X18 over specs: `rounds` single-file patches per
// package (rounds <= 0 selects 3), every round rebuilt through an
// incremental farm sharing one derivation store and through a cold farm,
// outputs compared bitwise round by round.
func (o *Options) RunIncrementalStudy(specs []*debpkg.Spec, rounds int) *IncrementalStudy {
	if rounds <= 0 {
		rounds = 3
	}
	off := o.derive(func(f *Options) { f.Checkpoints, f.Incremental = true, false })
	on := off.derive(func(f *Options) { f.Incremental = true })
	store := derive.NewMemStore()
	type iOut struct {
		ok         bool
		warm, cold []RoundResult
		warmStats  []RebuildStats
	}
	outs := make([]iOut, len(specs))
	o.forEach(len(specs), func(l obs.Local, i int) {
		spec := specs[i]
		warm, wst, wbase := on.RebuildRounds(l, spec, store, rounds, true)
		if v, _ := wbase.verdict(); v != "" {
			return
		}
		coldRs, _, cbase := off.RebuildRounds(l, spec, derive.NewMemStore(), rounds, true)
		if v, _ := cbase.verdict(); v != "" {
			return
		}
		outs[i] = iOut{ok: true, warm: warm, cold: coldRs, warmStats: wst}
	})
	st := &IncrementalStudy{}
	var rebuildNs, coldNs int64
	var lnRatio float64
	for _, io := range outs {
		if !io.ok {
			continue
		}
		st.Packages++
		for r := range io.warm {
			st.Rounds++
			c := io.cold[r]
			if reflect.DeepEqual(io.warm[r], c) {
				st.Identical++
			}
			ws := io.warmStats[r]
			coldNs += c.Wall
			if ws.Cold {
				st.ColdFalls++
				continue
			}
			st.Forked++
			st.UnitsTotal += int64(ws.UnitsTotal)
			st.UnitsReused += int64(ws.UnitsReused)
			st.UnitsRedone += int64(ws.UnitsRedone)
			rebuildNs += ws.RebuildNs
			if ws.RebuildNs > 0 && c.Wall > 0 {
				lnRatio += math.Log(float64(c.Wall) / float64(ws.RebuildNs))
			}
		}
	}
	if st.Forked > 0 {
		st.AvgRebuildNs = float64(rebuildNs) / float64(st.Forked)
	}
	if st.Rounds > 0 {
		st.AvgColdNs = float64(coldNs) / float64(st.Rounds)
	}
	if st.Forked > 0 {
		st.Speedup = math.Exp(lnRatio / float64(st.Forked))
	}
	return st
}
