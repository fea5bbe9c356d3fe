// Mechanism ablations: the one shape every performance mechanism's study
// shares. DetTrace's contract is that a mechanism may move the physical clock
// and nothing else, so each study builds the same packages with the mechanism
// on and off, counts the bitwise-identical ones, and reports what moved. The
// mechanism table in core declares the mechanisms and their contracts; ablate
// is the one runner; the buffering, workspace, observability and template
// studies here — and the delta-seal half of the time-travel study (ttd.go) —
// are views over its result.
package buildsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/reprotest"
)

// buildFunc is one DetTrace build on farm f under variation v.
type buildFunc func(f *Options, spec *debpkg.Spec, seed uint64, v reprotest.Variation) dtRun

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
	visit func(i int, on, off dtRun)
}

// ablated is one package's result. Times and events are those of the first
// perturbation, which is the farm's own first build (reprotest.Perturbed
// run 0); blTime is zero without protocol.baseline.
type ablated struct {
	spec      *debpkg.Spec
	ok        bool // baseline and mechanism-on builds completed
	identical bool // every pair the same up to what the mechanism may move
	rescued   bool // a deadline rescue: see rescue

	blTime, onTime, offTime int64 // virtual ns
	on, off                 Events
}

// rescue reports whether a pair's outcomes are a deadline rescue: builds are
// judged against DTDeadline on the virtual clock, so a mechanism whose
// contract moves virtual time may carry a build across it. The off build
// timing out where the on build completes is then the mechanism's effect,
// not a broken contract. The reverse, on timing out where off completes,
// stays a break.
func rescue(moves core.Moves, onDone bool, off Verdict) bool {
	return moves >= core.MovesVirtualTime && onDone && off == Timeout
}

// ablate builds every spec with mechanism m on and off, on two farms derived
// from o, under the same perturbations, and compares each pair by m's
// contract. A package whose baseline or builds fail is skipped, and so is a
// deadline rescue, which is marked; one whose two builds otherwise end in
// different verdicts counts, as not identical. It returns the per-package
// results in spec order and the two farms, whose SetupStats are the study's
// to read.
func (o *Options) ablate(m core.Mechanism, specs []*debpkg.Spec, p protocol) (pairs []ablated, on, off *Options) {
	on = o.derive(func(f *Options) { f.Off &^= core.Off(m) })
	off = o.derive(func(f *Options) { f.Off |= core.Off(m) })
	if p.runs <= 0 {
		p.runs = 1
	}
	if p.build == nil {
		p.build = func(f *Options, spec *debpkg.Spec, seed uint64, v reprotest.Variation) dtRun {
			return f.buildDT(spec, seed, v, nil)
		}
	}
	pairs = make([]ablated, len(specs))
	o.forEach(len(specs), func(i int) {
		pr := &pairs[i]
		pr.spec = specs[i]
		seed := pkgSeed(o.Seed, pr.spec)
		if p.baseline {
			nat := on.buildNative(pr.spec, reprotest.Perturbed(seed, 0), BLDeadline)
			if nat.verdict() != "" {
				return
			}
			pr.blTime = nat.wall
		}
		identical := true
		var on0, off0 dtRun
		for r := 0; r < p.runs; r++ {
			v := reprotest.Perturbed(seed, r)
			ron := p.build(on, pr.spec, seed, v)
			von, _ := ron.verdict()
			// A failed build is skipped at once, as the farm's own protocol
			// skips it — unless the study reads the two farms' setup
			// counters, which must then cover the same builds.
			if von != "" && m.Moves() != core.MovesSetup {
				return
			}
			roff := p.build(off, pr.spec, seed, v)
			if r == 0 {
				on0, off0 = ron, roff
			}
			voff, _ := roff.verdict()
			if rescue(m.Moves(), von == "", voff) {
				pr.rescued = true
				return
			}
			if voff != von {
				identical = false // same inputs must fail the same way
				break
			}
			if von != "" {
				return
			}
			identical = identical && ron.same(roff, m.Moves())
		}
		pr.ok, pr.identical = true, identical
		pr.onTime, pr.offTime = on0.wall, off0.wall
		pr.on, pr.off = on0.events, off0.events
		if p.visit != nil {
			p.visit(i, on0, off0)
		}
	})
	return pairs, on, off
}

// slowdowns is the Figure 5 aggregate over the completed pairs: total
// DetTrace time over total baseline time, mechanism on and off. Deadline
// rescues did not complete on both sides, so they are not in it.
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
	// Rescues counts the packages that time out unbuffered and complete
	// buffered (see rescue); they are in neither count above.
	Rescues int `json:"deadline_rescues"`

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
		"packages: %d; bitwise-identical with/without buffer: %d; deadline rescues: %d\n"+
			"aggregate slowdown: %.2fx buffered, %.2fx unbuffered (the paper's DetTrace)\n"+
			"per-package stops: %.0f buffered (%.0f records in %.0f flushes) vs %.0f unbuffered",
		st.Packages, st.Identical, st.Rescues,
		st.WithBuf, st.WithoutBuf,
		st.AvgStops, st.AvgBuffered, st.AvgFlushes, st.AvgStopsOff)
}

// OK is the study's oracle: the buffer moved no output bit.
func (st *BufferStudy) OK() bool { return st.Identical == st.Packages }

// RunBufferStudy builds each spec natively once, then twice under DetTrace —
// with and without the syscall buffer — and aggregates the two slowdowns.
func (o *Options) RunBufferStudy(specs []*debpkg.Spec) *BufferStudy {
	pairs, _, _ := o.ablate(core.SyscallBuf, specs, protocol{baseline: true})
	st := &BufferStudy{}
	st.Packages, st.Identical, st.WithBuf, st.WithoutBuf = slowdowns(pairs)
	var stops, buffered, flushes, stopsOff int64
	for _, p := range pairs {
		if p.rescued {
			st.Rescues++
		}
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
	pairs, _, _ := o.ablate(core.Workspaces, specs, protocol{baseline: true})
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
	pairs, _, _ := o.ablate(core.Observability, specs, protocol{baseline: true})
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
// the cold farm prepares a private snapshot for every boot and rebuilds its
// image every time. What a fork or a private boot costs on the host clock is
// bench/'s boot-churn row (core.fork_us, core.cold_new_us).
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
	// container forked from a shared template vs booted from a private
	// snapshot. Equal rates are the observability layer's invisibility
	// evidence — recording is independent of how the container was set up.
	// (Reported in the JSON's obs section.)
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
	pairs, on, off := o.ablate(core.TemplateReuse, specs, protocol{runs: runs})
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
