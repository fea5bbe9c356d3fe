// Time-travel debugging over recorded builds (ISSUE 9): record a package
// build in checkpoint mode keeping EVERY seal (the bounded crash-recovery
// store keeps only recent ones), wrap the seal chain and the full
// flight-recorder trace in a ttd.Session, and drive the two debugger verbs —
// SeekTo a logical instant, and Bisect two runs to their first divergent
// event in O(log n) seal probes plus a constant number of window replays.
//
// RunTTDStudy is the `benchtab -ttd` study: delta-vs-full seal sizes, seek
// latency against cold replay, and bisect cells that must land on the SAME
// event the linear diagnoser (diagnose.go) finds while re-executing only the
// checkpoint-bracketed window. BisectDiagnose, the `reprotest -bisect` gate,
// is one such cell.
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
// The session's Launch closure uses core.New deliberately — core templates
// zero the per-run halt knobs, so a halted replay must never route through
// a shared template.
func (o *Options) recordSession(spec *debpkg.Spec, inject int, mod func(*core.Config)) (*ttd.Session, dtRun) {
	seed := pkgSeed(o.Seed, spec)
	v, _ := reprotest.Pair(seed)
	img, pkgdir, imgHash := o.pkgImage(spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v)
	cfg.RingEvents = diagnoseRingEvents
	if inject > 0 {
		cfg.FaultInjectEntropy = inject
	}
	if mod != nil {
		mod(&cfg)
	}
	store, state := derive.NewMemStore(), derive.KeyFor(imgHash, core.ConfigHash(cfg))
	cfg.CheckpointSink = o.sealSink(store, state, 1)
	res := o.runContainer(cfg, img, imgHash, checkpointEnv)
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
		Obs:   o.reg(),
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

// bisectCell is one X19 bisect cell: a recorded build bisected against a
// recording of the same build with its inject'th entropy draw perturbed,
// and the answer checked against the linear diagnoser over both full
// traces.
type bisectCell struct {
	spec   *debpkg.Spec
	inject int
	// divergent: the perturbed run diverged — or did not complete, or the
	// bisection failed or saw a divergence the linear diagnoser did not.
	// Only "both methods agree there is none" is vacuous.
	divergent bool
	agree     bool  // bisect and linear named the same first divergent event
	seals     int   // seals in the shorter chain
	bound     int   // ceil(log2(seals))+1: the O(log n) window-replay bound
	err       error // the perturbed run did not complete, or bisection failed
	res       *ttd.BisectResult
	linear    *obs.Divergence
}

// bisectCell records spec with its inject'th entropy draw perturbed and
// localizes its first divergence from the reference recording a by
// checkpoint bisection.
func (o *Options) bisectCell(spec *debpkg.Spec, a *ttd.Session, inject int) *bisectCell {
	c := &bisectCell{spec: spec, inject: inject, divergent: true}
	b, run := o.recordSession(spec, inject, nil)
	if v, _ := run.verdict(); v != "" {
		c.err = fmt.Errorf("perturbed build did not complete: %s", v)
		return c
	}
	c.linear = obs.FirstDivergence(a.Trace, b.Trace)
	c.seals = min(len(a.Seals), len(b.Seals))
	c.bound = int(math.Ceil(math.Log2(float64(c.seals)))) + 1
	if c.res, c.err = a.Bisect(b); c.err == nil {
		c.agree = sameDivergence(c.res.Divergence, c.linear)
		c.divergent = c.linear != nil || c.res.Divergence != nil
	}
	return c
}

// OK is the cell's oracle: bisection landed on the linear diagnoser's exact
// event within the O(log n) window-replay bound — and, when a fault was
// injected, there was a divergence to land on.
func (c *bisectCell) OK() bool {
	return c.agree && c.res.WindowReplays <= c.bound && (c.divergent || c.inject == 0)
}

// String renders the cell for reprotest -bisect.
func (c *bisectCell) String() string {
	s := fmt.Sprintf("%s_%s: injected entropy fault at draw %d\n", c.spec.Name, c.spec.Version, c.inject)
	if c.err != nil {
		return s + c.err.Error()
	}
	s += fmt.Sprintf("bisect: %d seals, %d digest probes, window (%d, %d], %d window replays (bound %d)\n",
		c.seals, c.res.Probes, c.res.LowOrdinal, c.res.HighOrdinal, c.res.WindowReplays, c.bound)
	switch {
	case !c.divergent:
		return s + "no divergence found by either method"
	case c.agree:
		return s + fmt.Sprintf("bisect and linear diagnoser agree:\n%s", c.res.Divergence)
	}
	return s + fmt.Sprintf("MISMATCH\nbisect:  %s\nlinear:  %s", c.res.Divergence, c.linear)
}

// BisectDiagnose is the gate behind `reprotest -bisect -inject-entropy N`:
// record the build, then run the X19 bisect cell for draw N against it. ok
// requires agreement on the exact event AND the O(log n) bound — at most
// ceil(log2(seals))+1 window re-executions — and, for N > 0, a divergence.
func (o *Options) BisectDiagnose(spec *debpkg.Spec, inject int) (report string, ok bool) {
	a, runA := o.recordSession(spec, 0, nil)
	if v, _ := runA.verdict(); v != "" {
		return fmt.Sprintf("reference build did not complete: %s", v), false
	}
	c := o.bisectCell(spec, a, inject)
	return c.String(), c.OK()
}

// TTDStudy is the `benchtab -ttd` result: what dense delta checkpointing
// costs, what it buys a seek, and what bisection saves over linear replay.
type TTDStudy struct {
	Packages int `json:"packages"`
	Seals    int `json:"seals"` // seals recorded per reference run, summed

	// Equivalent counts packages whose delta-sealed build matched the
	// delta-seals-off build bitwise (the ablation equivalence gate).
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
	// BisectAgree counts those landing on the linear diagnoser's event, a
	// vacuous "neither found one" included. BisectDivergent counts the
	// packages whose injected run diverged (see bisectCell.divergent): only
	// those are evidence, and bisectHeld counts those whose cell passed.
	BisectProbes    int `json:"bisect_probes"`
	BisectReplays   int `json:"bisect_window_replays"`
	BisectAgree     int `json:"bisect_agree_linear"`
	BisectDivergent int `json:"bisect_divergent"`
	bisectHeld      int
}

// String renders the study for benchtab text output.
func (st *TTDStudy) String() string {
	return fmt.Sprintf(
		"ttd: %d packages, %d seals; delta/full equivalent %d/%d\n"+
			"seal bytes: delta %d vs full %d (ratio %.3f)\n"+
			"seek: %d actions replayed from seal chain vs %d cold (%.1fx)\n"+
			"bisect: %d probes, %d window replays; %d of %d injected runs diverged, "+
			"%s of those localized to the linear diagnoser's event within the O(log n) bound",
		st.Packages, st.Seals, st.Equivalent, st.Packages,
		st.DeltaBytes, st.FullBytes, st.Ratio,
		st.ReplayedActions, st.ColdActions, st.Speedup,
		st.BisectProbes, st.BisectReplays, st.BisectDivergent, st.Packages,
		stats.Pct(st.bisectHeld, st.BisectDivergent))
}

// OK is the study's oracle: delta seals moved no output bit, and every
// divergent bisection landed on the linear diagnoser's event within the
// O(log n) window-replay bound.
func (st *TTDStudy) OK() bool {
	return st.Equivalent == st.Packages && st.bisectHeld == st.BisectDivergent
}

// RunTTDStudy measures the time-travel debug service over specs: the
// delta-seal ablation equivalence, chain storage cost against full seals,
// seek distance against cold replay, and bisect cost against linear
// diagnosis.
func (o *Options) RunTTDStudy(specs []*debpkg.Spec) *TTDStudy {
	type tOut struct {
		seals                  int
		deltaBytes, fullBytes  int64
		replayed, coldReplayed int64
		bisect                 *bisectCell
	}
	outs := make([]tOut, len(specs))
	record := func(f *Options, spec *debpkg.Spec, _ uint64, _ reprotest.Variation) dtRun {
		_, run := f.recordSession(spec, 0, nil)
		return run
	}
	// A recorded session pins every seal and a diagnosis-sized ring, so each
	// package's are measured on the worker and dropped before the next.
	measure := func(i int, on, off dtRun) {
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
		out.bisect = o.bisectCell(specs[i], sess, 1)
		outs[i] = out
	}
	pairs, _, _ := o.ablate(core.DeltaSeals, specs, protocol{build: record, visit: measure})
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
		c := out.bisect
		if c.err == nil {
			st.BisectProbes += c.res.Probes
			st.BisectReplays += c.res.WindowReplays
		}
		if c.agree {
			st.BisectAgree++
		}
		if c.divergent {
			st.BisectDivergent++
			if c.OK() {
				st.bisectHeld++
			}
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
