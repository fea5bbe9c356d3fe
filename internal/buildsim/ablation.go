// Mechanism ablations: the one shape every performance mechanism's study
// shares. DetTrace's contract is that a mechanism may move the physical clock
// and nothing else, so each study builds the same packages with the mechanism
// on and off, counts the bitwise-identical ones, and reports what moved. The
// table below declares the mechanisms; ablate is the one runner; the
// buffering, workspace, observability and template studies here — and the
// delta-seal half of the time-travel study (ttd.go) — are views over its
// result.
package buildsim

import (
	"fmt"

	"repro/internal/debpkg"
	"repro/internal/obs"
	"repro/internal/reprotest"
)

// moves names what switching a mechanism off is allowed to change. Exit
// status, .deb and build log are pinned bitwise for every mechanism.
type moves int

const (
	movesNothing     moves = iota // not even the virtual clock
	movesVirtualTime              // the virtual clock (dtRun.wall, Out.DTTime, Out.Slowdown)
	movesSetupCounts              // the farm's SetupStats; no build observable
)

// ablation is one row of the mechanism table: how a farm switches the
// mechanism, and what that may move.
type ablation struct {
	name  string
	set   func(f *Options, off bool)
	moves moves
}

// Rows of the mechanism table.
const (
	ablSyscallBuf = iota
	ablWorkspaces
	ablObservability
	ablTemplates
	ablDeltaSeals
)

var ablations = [...]ablation{
	ablSyscallBuf:    {"syscall-buffer", func(f *Options, off bool) { f.NoSyscallBuf = off }, movesVirtualTime},
	ablWorkspaces:    {"workspaces", func(f *Options, off bool) { f.NoWorkspaces = off }, movesVirtualTime},
	ablObservability: {"observability", func(f *Options, off bool) { f.NoObservability = off }, movesNothing},
	ablTemplates:     {"templates", func(f *Options, off bool) { f.DisableTemplates = off }, movesSetupCounts},
	ablDeltaSeals:    {"delta-seals", func(f *Options, off bool) { f.noDeltaSeals = off }, movesNothing},
}

// buildFunc is one DetTrace build on farm f under variation v.
type buildFunc func(f *Options, l obs.Local, spec *debpkg.Spec, seed uint64, v reprotest.Variation) dtRun

// protocol is how a study drives the runner; the zero value is one buildDT
// pair per package with no baseline.
type protocol struct {
	runs     int       // perturbed on/off pairs per package (0 = 1)
	baseline bool      // build natively first and skip packages whose baseline fails
	build    buildFunc // nil = buildDT
	// visit, when set, runs on the worker with a completed package's first
	// on/off pair — the only place the full runs (.deb, log, ring, debug
	// session) are reachable: the per-package results keep numbers only, so
	// a study's footprint does not grow with its sample.
	visit func(l obs.Local, i int, on, off dtRun)
}

// ablated is one package's result. Times and events are those of the first
// perturbation, which is the farm's own first build (reprotest.Perturbed
// run 0); blTime is zero without protocol.baseline.
type ablated struct {
	spec      *debpkg.Spec
	ok        bool // baseline and mechanism-on builds completed
	identical bool // every pair the same up to what the mechanism may move

	blTime, onTime, offTime int64 // virtual ns
	on, off                 Events
}

// ablate builds every spec with mechanism a on and off, on two farms derived
// from o, under the same perturbations, and compares each pair. A package
// whose baseline or builds fail is skipped; one whose two builds end in
// different verdicts counts, as not identical. It returns the per-package
// results in spec order and the two farms, whose SetupStats are the study's
// to read.
func (o *Options) ablate(a ablation, specs []*debpkg.Spec, p protocol) (pairs []ablated, on, off *Options) {
	on = o.derive(func(f *Options) { a.set(f, false) })
	off = o.derive(func(f *Options) { a.set(f, true) })
	if p.runs <= 0 {
		p.runs = 1
	}
	if p.build == nil {
		p.build = func(f *Options, l obs.Local, spec *debpkg.Spec, seed uint64, v reprotest.Variation) dtRun {
			return f.buildDT(l, spec, seed, v, nil)
		}
	}
	pairs = make([]ablated, len(specs))
	o.forEach(len(specs), func(l obs.Local, i int) {
		pr := &pairs[i]
		pr.spec = specs[i]
		seed := pkgSeed(o.Seed, pr.spec)
		if p.baseline {
			nat := on.buildNative(l, pr.spec, reprotest.Perturbed(seed, 0), BLDeadline)
			if nat.verdict() != "" {
				return
			}
			pr.blTime = nat.wall
		}
		identical := true
		var on0, off0 dtRun
		for r := 0; r < p.runs; r++ {
			v := reprotest.Perturbed(seed, r)
			ron := p.build(on, l, pr.spec, seed, v)
			von, _ := ron.verdict()
			// A failed build is skipped at once, as the farm's own protocol
			// skips it — unless the study reads the two farms' setup
			// counters, which must then cover the same builds.
			if von != "" && a.moves != movesSetupCounts {
				return
			}
			roff := p.build(off, l, pr.spec, seed, v)
			if r == 0 {
				on0, off0 = ron, roff
			}
			if voff, _ := roff.verdict(); voff != von {
				identical = false // same inputs must fail the same way
				break
			}
			if von != "" {
				return
			}
			identical = identical && ron.same(roff, a.moves)
		}
		pr.ok, pr.identical = true, identical
		pr.onTime, pr.offTime = on0.wall, off0.wall
		pr.on, pr.off = on0.events, off0.events
		if p.visit != nil {
			p.visit(l, i, on0, off0)
		}
	})
	return pairs, on, off
}

// slowdowns is the Figure 5 aggregate over the completed pairs: total
// DetTrace time over total baseline time, mechanism on and off.
func slowdowns(pairs []ablated) (packages, identical int, on, off float64) {
	var blSum, onSum, offSum int64
	for _, p := range pairs {
		if !p.ok {
			continue
		}
		packages++
		if p.identical {
			identical++
		}
		blSum += p.blTime
		onSum += p.onTime
		offSum += p.offTime
	}
	if blSum > 0 {
		on, off = float64(onSum)/float64(blSum), float64(offSum)/float64(blSum)
	}
	return packages, identical, on, off
}

// BufferStudy is the syscall-buffering ablation: the Figure 5 aggregate
// re-derived with the in-tracee buffer on and off, over the same packages
// under the same perturbations. Outputs must be bitwise identical either way
// (the buffer is a performance mechanism, not a semantic one); only the
// overhead moves.
type BufferStudy struct {
	Packages  int `json:"packages"`          // packages whose baseline and both DT runs completed
	Identical int `json:"bitwise_identical"` // packages whose buffered and unbuffered builds matched

	WithBuf    float64 `json:"aggregate_slowdown"`            // aggregate slowdown, buffer on
	WithoutBuf float64 `json:"aggregate_slowdown_unbuffered"` // buffer off (pre-buffer DetTrace)

	// Per-package averages over the completed set, buffer on.
	AvgStops    float64 `json:"avg_ptrace_stops"`
	AvgBuffered float64 `json:"avg_buffered_calls"`
	AvgFlushes  float64 `json:"avg_buffer_flushes"`
	// AvgStopsOff is the unbuffered run's average stop count, for the
	// stop-elimination headline.
	AvgStopsOff float64 `json:"avg_ptrace_stops_unbuffered"`
}

// String renders the ablation summary.
func (st *BufferStudy) String() string {
	return fmt.Sprintf(
		"packages: %d; bitwise-identical with/without buffer: %d\n"+
			"aggregate slowdown: %.2fx buffered, %.2fx unbuffered\n"+
			"per-package stops: %.0f buffered (%.0f records in %.0f flushes) vs %.0f unbuffered",
		st.Packages, st.Identical,
		st.WithBuf, st.WithoutBuf,
		st.AvgStops, st.AvgBuffered, st.AvgFlushes, st.AvgStopsOff)
}

// OK is the study's oracle: the buffer moved no output bit.
func (st *BufferStudy) OK() bool { return st.Identical == st.Packages }

// RunBufferStudy builds each spec natively once, then twice under DetTrace —
// with and without the syscall buffer — and aggregates the two slowdowns.
func (o *Options) RunBufferStudy(specs []*debpkg.Spec) *BufferStudy {
	pairs, _, _ := o.ablate(ablations[ablSyscallBuf], specs, protocol{baseline: true})
	st := &BufferStudy{}
	st.Packages, st.Identical, st.WithBuf, st.WithoutBuf = slowdowns(pairs)
	var stops, buffered, flushes, stopsOff int64
	for _, p := range pairs {
		if p.ok {
			stops += p.on.Stops
			buffered += p.on.Buffered
			flushes += p.on.Flushes
			stopsOff += p.off.Stops
		}
	}
	if n := float64(st.Packages); n > 0 {
		st.AvgStops = float64(stops) / n
		st.AvgBuffered = float64(buffered) / n
		st.AvgFlushes = float64(flushes) / n
		st.AvgStopsOff = float64(stopsOff) / n
	}
	return st
}

// WorkspaceStudy is the X17 farm-level ablation: every spec built under
// DetTrace with copy-on-write thread workspaces on and with the serialized-
// thread fallback. Outputs must be bitwise identical either way — workspaces
// relax only the physical clock — so the study's interesting numbers are the
// threaded packages' wall-time recovery and the merge accounting.
type WorkspaceStudy struct {
	Packages  int `json:"farm_packages"`  // packages whose baseline and both DT runs completed
	Threaded  int `json:"farm_threaded"`  // of those, packages whose build clones threads (javac)
	Identical int `json:"farm_identical"` // packages whose on/off builds matched bitwise

	WithWs    float64 `json:"farm_slowdown"`            // aggregate DT slowdown vs baseline, workspaces on
	WithoutWs float64 `json:"farm_slowdown_serialized"` // serialized-thread ablation

	// ThreadedSpeedup aggregates ws-off wall over ws-on wall across the
	// threaded packages only (single-threaded builds never fork a
	// workspace, so their two runs are identical to the nanosecond).
	ThreadedSpeedup float64 `json:"farm_threaded_speedup"`

	// Per-threaded-package averages, workspaces on.
	AvgForks  float64 `json:"farm_avg_forks"`
	AvgMerges float64 `json:"farm_avg_merges"`
	// Conflicts counts rank-resolved merge collisions across the whole
	// study; production guests write disjoint paths, so any nonzero value
	// is a finding.
	Conflicts int64 `json:"farm_conflicts"`
}

// String renders the ablation summary.
func (st *WorkspaceStudy) String() string {
	return fmt.Sprintf(
		"packages: %d (%d threaded); bitwise-identical with/without workspaces: %d\n"+
			"aggregate slowdown: %.2fx workspaces, %.2fx serialized threads\n"+
			"threaded packages: %.2fx faster with workspaces; per package %.0f forks, %.0f merges, %d conflicts",
		st.Packages, st.Threaded, st.Identical,
		st.WithWs, st.WithoutWs,
		st.ThreadedSpeedup, st.AvgForks, st.AvgMerges, st.Conflicts)
}

// OK is the study's oracle: workspaces moved no output bit and no merge
// conflicted.
func (st *WorkspaceStudy) OK() bool { return st.Identical == st.Packages && st.Conflicts == 0 }

// RunWorkspaceStudy builds each spec natively once, then twice under
// DetTrace — workspaces on and off — and aggregates the two slowdowns plus
// the threaded packages' recovery ratio.
func (o *Options) RunWorkspaceStudy(specs []*debpkg.Spec) *WorkspaceStudy {
	pairs, _, _ := o.ablate(ablations[ablWorkspaces], specs, protocol{baseline: true})
	st := &WorkspaceStudy{}
	st.Packages, st.Identical, st.WithWs, st.WithoutWs = slowdowns(pairs)
	var thrOnSum, thrOffSum, forks, merges int64
	for _, p := range pairs {
		if !p.ok {
			continue
		}
		st.Conflicts += p.on.WsConflicts
		if p.spec.Compiler == "javac" {
			st.Threaded++
			thrOnSum += p.onTime
			thrOffSum += p.offTime
			forks += p.on.WsForks
			merges += p.on.WsMerges
		}
	}
	if thrOnSum > 0 {
		st.ThreadedSpeedup = float64(thrOffSum) / float64(thrOnSum)
	}
	if n := float64(st.Threaded); n > 0 {
		st.AvgForks = float64(forks) / n
		st.AvgMerges = float64(merges) / n
	}
	return st
}

// ObsStudy is the observability ablation: the Figure 5 aggregate with the
// flight recorder on and off. The recorder charges no virtual time, so any
// regression at all is an observer-effect bug.
type ObsStudy struct {
	Packages  int `json:"packages"`
	Identical int `json:"bitwise_identical"` // same bits and the same virtual clock

	SlowdownOn    float64 `json:"aggregate_slowdown_obs_on"`
	SlowdownOff   float64 `json:"aggregate_slowdown_obs_off"`
	RegressionPct float64 `json:"fig5_regression_pct"`
}

// String renders the ablation summary.
func (st *ObsStudy) String() string {
	return fmt.Sprintf(
		"packages: %d; bitwise-identical with/without the flight recorder: %d\n"+
			"aggregate slowdown: %.2fx recording, %.2fx not (%.2f%% regression)",
		st.Packages, st.Identical, st.SlowdownOn, st.SlowdownOff, st.RegressionPct)
}

// OK is the study's oracle: the recorder moved neither a bit nor the clock.
func (st *ObsStudy) OK() bool { return st.Identical == st.Packages }

// RunObsStudy builds each spec natively once, then twice under DetTrace —
// flight recorder on and off — and aggregates the two slowdowns.
func (o *Options) RunObsStudy(specs []*debpkg.Spec) *ObsStudy {
	pairs, _, _ := o.ablate(ablations[ablObservability], specs, protocol{baseline: true})
	st := &ObsStudy{}
	st.Packages, st.Identical, st.SlowdownOn, st.SlowdownOff = slowdowns(pairs)
	if st.SlowdownOff > 0 {
		st.RegressionPct = (st.SlowdownOn - st.SlowdownOff) / st.SlowdownOff * 100
	}
	return st
}

// TemplateStudy is the template-reuse ablation: the same perturbation builds
// run through two farms — templates on and off — outputs compared bitwise.
// Reuse is a pure performance mechanism, so Identical must equal Packages;
// only the setup traffic may move, and the study reports it exactly: the
// templated farm forks every boot off a handful of prepares and image builds,
// the cold farm boots cold and rebuilds its image every time. What a fork or
// a cold boot costs on the host clock is bench/'s boot-churn row
// (core.fork_us, core.cold_new_us).
type TemplateStudy struct {
	Packages  int `json:"packages"`          // packages whose builds completed under both farms
	Runs      int `json:"runs_per_package"`  // perturbation builds per package (each done twice)
	Identical int `json:"bitwise_identical"` // packages bitwise-identical across every on/off run pair

	// Template-store traffic, templates on.
	Hits      int64 `json:"template_hits"`
	Misses    int64 `json:"template_misses"`
	Evictions int64 `json:"template_evictions"`

	ColdBootsOn    int64 `json:"cold_boots_templates_on"`
	ForkBootsOn    int64 `json:"fork_boots_templates_on"`
	ImageBuildsOn  int64 `json:"image_builds_templates_on"`
	ColdBootsOff   int64 `json:"cold_boots_templates_off"`
	ForkBootsOff   int64 `json:"fork_boots_templates_off"`
	ImageBuildsOff int64 `json:"image_builds_templates_off"`

	// Recorder overhead per setup path: flight-recorder events produced per
	// forked vs cold-booted container. Equal rates are the observability
	// layer's invisibility evidence — recording is independent of how the
	// container was set up. (Reported in the JSON's obs section.)
	AvgRecEventsFork float64 `json:"-"`
	AvgRecEventsCold float64 `json:"-"`
}

// String renders the ablation summary.
func (st *TemplateStudy) String() string {
	return fmt.Sprintf(
		"packages: %d x %d perturbed builds; bitwise-identical with/without templates: %d\n"+
			"templated farm: %d forked boots, %d cold, %d image builds; store: %d hits, %d misses, %d evictions\n"+
			"cold farm: %d forked boots, %d cold, %d image builds\n"+
			"recorder: %.0f events per forked boot vs %.0f per cold boot",
		st.Packages, st.Runs, st.Identical,
		st.ForkBootsOn, st.ColdBootsOn, st.ImageBuildsOn, st.Hits, st.Misses, st.Evictions,
		st.ForkBootsOff, st.ColdBootsOff, st.ImageBuildsOff,
		st.AvgRecEventsFork, st.AvgRecEventsCold)
}

// OK is the study's oracle: templates moved no output bit, and each farm took
// only its own setup path.
func (st *TemplateStudy) OK() bool {
	return st.Identical == st.Packages && st.ColdBootsOn == 0 && st.ForkBootsOff == 0
}

// RunTemplateStudy builds each spec `runs` times under DetTrace with
// perturbed host accidents, through a templated farm and a cold farm, and
// compares outputs and setup traffic. runs <= 0 selects the default of 16 —
// reprotest's standard variation schedule — so one template prepare
// amortizes across all of a package's perturbed builds, exactly as it does
// across the farm's own BL/DT/ablation re-runs.
func (o *Options) RunTemplateStudy(specs []*debpkg.Spec, runs int) *TemplateStudy {
	if runs <= 0 {
		runs = 16
	}
	pairs, on, off := o.ablate(ablations[ablTemplates], specs, protocol{runs: runs})
	st := &TemplateStudy{Runs: runs}
	st.Packages, st.Identical, _, _ = slowdowns(pairs)
	son, soff := on.SetupStats(), off.SetupStats()
	st.Hits, st.Misses, st.Evictions = son.TemplateHits, son.TemplateMisses, son.Evictions
	st.ColdBootsOn, st.ForkBootsOn, st.ImageBuildsOn = son.ColdBoots, son.ForkBoots, son.ImageBuilds
	st.ColdBootsOff, st.ForkBootsOff, st.ImageBuildsOff = soff.ColdBoots, soff.ForkBoots, soff.ImageBuilds
	if son.ForkBoots > 0 {
		st.AvgRecEventsFork = float64(son.RecEventsFork) / float64(son.ForkBoots)
	}
	if soff.ColdBoots > 0 {
		st.AvgRecEventsCold = float64(soff.RecEventsCold) / float64(soff.ColdBoots)
	}
	return st
}
