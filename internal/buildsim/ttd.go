// Time-travel debugging over recorded builds (ISSUE 9): record a package
// build in checkpoint mode keeping EVERY seal (the bounded crash-recovery
// store keeps only recent ones), wrap the seal chain and the full
// flight-recorder trace in a ttd.Session, and drive the two debugger verbs —
// SeekTo a logical instant, and Bisect two runs to their first divergent
// event in O(log n) seal probes plus a constant number of window replays.
//
// BisectDiagnose is the `reprotest -bisect` gate: it must land on the SAME
// event the linear diagnoser (diagnose.go) finds, while re-executing only
// the checkpoint-bracketed window. RunTTDStudy is the `benchtab -ttd` study:
// delta-vs-full seal sizes, seek latency against cold replay, bisect probe
// counts.
package buildsim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/obs"
	"repro/internal/reprotest"
	"repro/internal/stats"
	"repro/internal/ttd"
)

// recordSession builds spec once in checkpoint mode, sealing into a private
// unbounded store so every seal is kept, with a diagnosis-sized ring, and
// wraps the recording in a ttd.Session.
// inject > 0 perturbs the inject'th entropy draw (the divergence the bisect
// gate localizes); mod further adjusts the config (the delta-seal ablation).
// The session's Launch closure cold-boots deliberately — core templates
// zero the per-run halt knobs, so a halted replay must never route through
// the template fork path.
func (o *Options) recordSession(l obs.Local, spec *debpkg.Spec, inject int, mod func(*core.Config)) (*ttd.Session, dtRun) {
	seed := pkgSeed(o.Seed, spec)
	v, _ := reprotest.Pair(seed)
	img, pkgdir, imgHash := o.pkgImage(l, spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v)
	cfg.RingEvents = diagnoseRingEvents
	if inject > 0 {
		cfg.FaultInjectEntropy = inject
	}
	if mod != nil {
		mod(&cfg)
	}
	store, state := derive.NewMemStore(), derive.KeyFor(imgHash, core.ConfigHash(cfg))
	cfg.CheckpointSink = o.sealSink(l, store, state, 1)
	res := o.runContainer(l, cfg, img, imgHash, checkpointEnv)
	seals := make([]*core.Checkpoint, store.Latest(state, 1))
	for i := range seals {
		v, _, _ := store.Seal(derive.SealKey{State: state, Job: 1, Ordinal: i + 1})
		seals[i] = v.(*core.Checkpoint)
	}
	sess := &ttd.Session{
		Cfg:   cfg,
		Reg:   registry(),
		Seals: seals,
		Trace: res.Events,
		Obs:   o.Obs(),
		Launch: func(c core.Config) *core.Result {
			return core.New(c).Run(registry(), "/bin/dpkg-buildpackage",
				[]string{"dpkg-buildpackage", "-b"}, checkpointEnv)
		},
	}
	run := dtRunFrom(res, spec, pkgdir)
	run.sess = sess
	return sess, run
}

// sameDivergence reports whether the bisect and the linear diagnoser named
// the same first divergent event: same comparable-stream index and the same
// event content on both sides (nil sides must agree too).
func sameDivergence(a, b *obs.Divergence) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Index != b.Index {
		return false
	}
	same := func(x, y *obs.Event) bool {
		if x == nil || y == nil {
			return x == nil && y == nil
		}
		return x.Kind == y.Kind && x.Pid == y.Pid && x.Num == y.Num &&
			x.Arg == y.Arg && x.Ret == y.Ret
	}
	return same(a.A, b.A) && same(a.B, b.B)
}

// BisectDiagnose is the gate behind `reprotest -bisect -inject-entropy N`:
// record the build twice (run B with the injected entropy perturbation),
// localize the first divergent event by checkpoint bisection, and check the
// answer against the linear diagnoser over the two full traces. ok requires
// agreement on the exact event AND the O(log n) bound — at most
// ceil(log2(seals))+1 window re-executions.
func (o *Options) BisectDiagnose(spec *debpkg.Spec, inject int) (report string, ok bool) {
	on := o.derive(func(f *Options) { f.Checkpoints = true })
	l := obs.NewLocal()
	a, runA := on.recordSession(l, spec, 0, nil)
	if v, _ := runA.verdict(); v != "" {
		return fmt.Sprintf("reference build did not complete: %s", v), false
	}
	b, runB := on.recordSession(l, spec, inject, nil)
	if v, _ := runB.verdict(); v != "" {
		return fmt.Sprintf("perturbed build did not complete: %s", v), false
	}

	linear := obs.FirstDivergence(a.Trace, b.Trace)
	bres, err := a.Bisect(b)
	if err != nil {
		return fmt.Sprintf("bisect failed: %v", err), false
	}

	seals := len(a.Seals)
	if len(b.Seals) < seals {
		seals = len(b.Seals)
	}
	bound := int(math.Ceil(math.Log2(float64(seals)))) + 1
	agree := sameDivergence(bres.Divergence, linear)
	ok = agree && bres.WindowReplays <= bound

	report = fmt.Sprintf(
		"%s_%s: %d seals (run A %d, run B %d), injected entropy fault at draw %d\n"+
			"bisect: %d digest probes, window (%d, %d], %d window replays (bound %d)\n",
		spec.Name, spec.Version, seals, len(a.Seals), len(b.Seals), inject,
		bres.Probes, bres.LowOrdinal, bres.HighOrdinal, bres.WindowReplays, bound)
	switch {
	case bres.Divergence == nil && linear == nil:
		report += "no divergence found by either method"
		if inject > 0 {
			report += " (injection did not reach an entropy draw)"
			ok = false
		}
	case agree:
		report += fmt.Sprintf("bisect and linear diagnoser agree:\n%s", bres.Divergence)
	default:
		report += fmt.Sprintf("MISMATCH\nbisect:  %s\nlinear:  %s", bres.Divergence, linear)
	}
	if agree && bres.WindowReplays > bound {
		report += fmt.Sprintf("\nwindow replays %d exceed the O(log n) bound %d",
			bres.WindowReplays, bound)
	}
	return report, ok
}

// TTDStudy is the `benchtab -ttd` result: what dense delta checkpointing
// costs, what it buys a seek, and what bisection saves over linear replay.
type TTDStudy struct {
	Packages int `json:"packages"`
	Seals    int `json:"seals"` // seals recorded per reference run, summed

	// Equivalent counts packages whose delta-sealed build matched the
	// DisableDeltaSeals build bitwise (the ablation equivalence gate).
	Equivalent int `json:"delta_full_equivalent"`

	// DeltaBytes is what the delta chains actually stored (base seal + fresh
	// bytes of every delta); FullBytes what the same chains would hold as
	// standalone full seals. Ratio = DeltaBytes/FullBytes.
	DeltaBytes int64   `json:"seal_delta_bytes"`
	FullBytes  int64   `json:"seal_full_bytes"`
	Ratio      float64 `json:"seal_delta_ratio"`

	// ReplayedActions is a mid-build SeekTo's forward-replay distance when
	// restored from the seal chain; ColdActions the same seek forced to
	// replay from boot. Speedup = ColdActions/ReplayedActions — the
	// deterministic seek-cost ratio (kernel actions re-executed, a pure
	// function of the run). What a seek costs on the host clock is bench/'s
	// seal-recover row ttd.seek_ms.
	ReplayedActions int64   `json:"seek_replayed_actions"`
	ColdActions     int64   `json:"cold_replayed_actions"`
	Speedup         float64 `json:"seek_speedup"`

	// BisectProbes/BisectReplays aggregate the entropy-injected bisections;
	// BisectAgree counts those landing on the linear diagnoser's event.
	BisectProbes  int `json:"bisect_probes"`
	BisectReplays int `json:"bisect_window_replays"`
	BisectAgree   int `json:"bisect_agree_linear"`
}

// String renders the study for benchtab text output.
func (st *TTDStudy) String() string {
	return fmt.Sprintf(
		"ttd: %d packages, %d seals; delta/full equivalent %d/%d\n"+
			"seal bytes: delta %d vs full %d (ratio %.3f)\n"+
			"seek: %d actions replayed from seal chain vs %d cold (%.1fx)\n"+
			"bisect: %d probes, %d window replays, %s agree with linear",
		st.Packages, st.Seals, st.Equivalent, st.Packages,
		st.DeltaBytes, st.FullBytes, st.Ratio,
		st.ReplayedActions, st.ColdActions, st.Speedup,
		st.BisectProbes, st.BisectReplays, stats.Pct(st.BisectAgree, st.Packages))
}

// OK is the study's oracle: delta seals moved no output bit, and every
// bisection landed on the linear diagnoser's event.
func (st *TTDStudy) OK() bool {
	return st.Equivalent == st.Packages && st.BisectAgree == st.Packages
}

// RunTTDStudy measures the time-travel debug service over specs: the
// delta-seal ablation equivalence, chain storage cost against full seals,
// seek distance against cold replay, and bisect cost against linear
// diagnosis.
func (o *Options) RunTTDStudy(specs []*debpkg.Spec) *TTDStudy {
	type tOut struct {
		agree                  bool
		seals                  int
		deltaBytes, fullBytes  int64
		replayed, coldReplayed int64
		probes, replays        int
	}
	outs := make([]tOut, len(specs))
	record := func(f *Options, l obs.Local, spec *debpkg.Spec, _ uint64, _ reprotest.Variation) dtRun {
		_, run := f.recordSession(l, spec, 0, nil)
		return run
	}
	// A recorded session pins every seal and a diagnosis-sized ring, so each
	// package's are measured on the worker and dropped before the next.
	measure := func(l obs.Local, i int, on, off dtRun) {
		sess, full := on.sess, off.sess
		out := tOut{seals: len(sess.Seals)}

		// Chain storage: the delta chain's stored bytes vs the standalone
		// full seals the ablated run took at the same instants.
		for _, cp := range sess.Seals {
			s := cp.Kernel().FSSealStats()
			if s.Delta {
				out.deltaBytes += s.FreshBytes
			} else {
				out.deltaBytes += s.TotalBytes
			}
		}
		for _, cp := range full.Seals {
			out.fullBytes += cp.Kernel().FSSealStats().TotalBytes
		}

		// Seek to the run's logical midpoint, once from the seal chain and
		// once forced cold (a sealless session replays from boot).
		if len(sess.Trace) > 0 {
			mid := sess.Trace[len(sess.Trace)/2].LTime
			if view, err := sess.SeekTo(mid); err == nil {
				out.replayed = view.ReplayedActions
			}
			cold := *sess
			cold.Seals = nil
			if view, err := cold.SeekTo(mid); err == nil {
				out.coldReplayed = view.ReplayedActions
			}
		}

		// Bisect against an entropy-injected recording of the same build.
		inj, injRun := o.recordSession(l, specs[i], 1, nil)
		if v, _ := injRun.verdict(); v == "" {
			if bres, err := sess.Bisect(inj); err == nil {
				out.probes = bres.Probes
				out.replays = bres.WindowReplays
				out.agree = sameDivergence(bres.Divergence,
					obs.FirstDivergence(sess.Trace, inj.Trace))
			}
		}
		outs[i] = out
	}
	pairs, _, _ := o.ablate(ablations[ablDeltaSeals], specs, protocol{build: record, visit: measure})
	st := &TTDStudy{}
	for i, p := range pairs {
		if !p.ok {
			continue
		}
		out := outs[i]
		st.Packages++
		st.Seals += out.seals
		if p.identical {
			st.Equivalent++
		}
		st.DeltaBytes += out.deltaBytes
		st.FullBytes += out.fullBytes
		st.ReplayedActions += out.replayed
		st.ColdActions += out.coldReplayed
		st.BisectProbes += out.probes
		st.BisectReplays += out.replays
		if out.agree {
			st.BisectAgree++
		}
	}
	if st.FullBytes > 0 {
		st.Ratio = float64(st.DeltaBytes) / float64(st.FullBytes)
	}
	if st.ReplayedActions > 0 {
		st.Speedup = float64(st.ColdActions) / float64(st.ReplayedActions)
	}
	return st
}
