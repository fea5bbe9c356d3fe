package main

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/baseimg"
	"repro/internal/buildsim"
	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/reprotest"
	"repro/internal/stripnd"
	tools "repro/internal/workload"
)

// farmBuild is the paper's §6.1 protocol and what benchtab users run: a
// stratified sample of the package universe through a fresh
// buildsim.Options.BuildAll per repetition, default mechanisms. One op is
// one package — a native double build, a DetTrace double build and two
// bitwise compares. The kernel run loop and the toolchain guests dominate,
// set-up layers are amortised by BuildAll's caches, and the Fig. 5 virtual
// slowdown lives here.
type farmBuild struct {
	seed  uint64
	specs []*debpkg.Spec
	reg   *guest.Registry
	ref   []buildsim.Out
	setup buildsim.SetupStats // of the latest BuildAll
	in    uint64
}

func (w *farmBuild) gen(seed uint64, scale float64) {
	w.seed = seed
	w.reg = toolchain()
	w.specs = stratified(seed, scale, universeStrata)
	d := newDigest()
	for _, s := range w.specs {
		d.str(s.Name + "/" + s.Version + "/" + s.Class.String())
		d.num(uint64(s.Units), uint64(s.UnitKB), uint64(s.Headers), uint64(s.ComputeFct))
	}
	w.in = d.sum()
	w.ref = nil
}

func (w *farmBuild) inputDigest() uint64 { return w.in }

// sameOut compares two package records minus the Spec pointer.
func sameOut(a, b buildsim.Out) bool {
	return a.Index == b.Index && a.BL == b.BL && a.DT == b.DT && a.UnsupReason == b.UnsupReason &&
		a.BLTime == b.BLTime && a.DTTime == b.DTTime && a.SyscallRate == b.SyscallRate &&
		a.Slowdown == b.Slowdown && a.Threaded == b.Threaded && a.Events == b.Events
}

func digestOut(d digest, o buildsim.Out) {
	d.str(string(o.BL) + "/" + string(o.DT) + "/" + o.UnsupReason)
	d.num(uint64(o.BLTime), uint64(o.DTTime), uint64(o.Events.Syscalls), uint64(o.Events.Stops),
		uint64(o.Events.Buffered), uint64(o.Events.Flushes), uint64(o.Events.Sched),
		uint64(o.Events.MemReads), uint64(o.Events.Spawns))
}

// finish folds one repetition's package records into a repOut: checks each
// against the reference, and takes the virtual-clock metrics over the
// DetTrace-completed builds, as buildsim.Aggregate does for Fig. 5.
func (w *farmBuild) finish(outs []buildsim.Out, lat []sample) repOut {
	if w.ref == nil {
		w.ref = outs
	}
	out := repOut{ops: int64(len(outs)), lat: lat}
	od := newDigest()
	var dt int64
	var completed int64
	for i, o := range outs {
		if !sameOut(o, w.ref[i]) || o.DT == buildsim.Irreproducible || o.DT == buildsim.Fail {
			out.failed++
		}
		digestOut(od, o)
		if o.DT == buildsim.Reproducible {
			dt += o.DTTime
			completed++
		}
	}
	out.digest = od.sum()
	out.slowdown = buildsim.Aggregate(outs).AggregateSlowdown
	if completed > 0 {
		out.virtUsPerOp = float64(dt) / 1e3 / float64(completed)
	}
	return out
}

func (w *farmBuild) run(clients int, t *tracer, ls *layerStats) repOut {
	if t != nil {
		return w.traced(t, ls)
	}
	o := &buildsim.Options{Seed: w.seed, Jobs: clients}
	// BuildAll is a batch call; its serialized progress callback is the
	// only per-package signal, so a package's latency is its time to
	// result: from submitting the batch to its record being done.
	lat := make([]sample, 0, len(w.specs))
	start := time.Now()
	outs := o.BuildAll(w.specs, func(done, total int) {
		lat = append(lat, sample{float64(time.Since(start).Nanoseconds()) / 1e6, 1})
	})
	w.setup = o.SetupStats()
	return w.finish(outs, lat)
}

// pkgSeed is buildsim's per-package environment seed, re-derived from its
// public ingredients; traced() checks the re-derivation against BuildAll's
// records on every package.
func pkgSeed(seed uint64, spec *debpkg.Spec) uint64 {
	return derive.DigestBytes([]byte(spec.Name+"/"+spec.Version)) ^ (seed * 0x9E3779B97F4A7C15)
}

func debPath(spec *debpkg.Spec) string {
	return "/build/out/" + spec.Name + "_" + spec.Version + "_amd64.deb"
}

func imageFile(im *fs.Image, path string) []byte {
	if im == nil {
		return nil
	}
	if e, ok := im.Entries[path]; ok {
		return e.Data
	}
	return nil
}

// traced re-drives the double-build protocol serially with the harness
// calling each layer itself — reprotest.Pair, image assembly, kernel
// Prepare/Boot/Start/Run for the native builds, core NewTemplate/
// NewContainer/Run for the DetTrace builds, stripnd.Strip and the compares —
// where the untraced run hands the whole batch to BuildAll. Every record it
// assembles must equal BuildAll's, which keeps the re-drive honest.
func (w *farmBuild) traced(t *tracer, ls *layerStats) repOut {
	outs := make([]buildsim.Out, len(w.specs))
	var lat []sample
	var counts runCounts
	farmObs := obs.NewRegistry()
	var layerNs, actions, runNs, probeNs int64
	start := time.Now()
	for i, spec := range w.specs {
		op := int64(i)
		id := t.begin("buildsim.package", op)
		seed := pkgSeed(w.seed, spec)
		v1, v2 := reprotest.Pair(seed)
		out := buildsim.Out{Spec: spec, Index: i, Threaded: spec.Compiler == "javac"}
		w.protocol(t, ls, op, spec, seed, v1, v2, &out, &counts, farmObs, &actions, &runNs, &probeNs)
		outs[i] = out
		layerNs += t.end(id)
		lat = append(lat, sample{float64(time.Since(start).Nanoseconds()) / 1e6, 1})
	}
	res := w.finish(outs, lat)
	counts.publish(ls, res.ops)
	if runNs > 0 {
		ls.obs("kernel.actions_per_s", float64(actions)/(float64(runNs)/1e9))
	}

	// The harness prices buildsim's own layer — caches, hashing and
	// bookkeeping around the calls above — by setting this against the same
	// batch through BuildAll at one job (see runTraced).
	ls.obs("buildsim.layer_s", float64(layerNs-probeNs)/1e9)
	if n := w.setup.TemplateHits + w.setup.TemplateMisses; n > 0 {
		ls.set("buildsim.template_hit_frac", float64(w.setup.TemplateHits)/float64(n))
	}
	return res
}

// protocol is buildsim.buildProto, layer by layer.
func (w *farmBuild) protocol(t *tracer, ls *layerStats, op int64, spec *debpkg.Spec, seed uint64,
	v1, v2 reprotest.Variation, out *buildsim.Out, counts *runCounts, farmObs *obs.Registry, actions, runNs, probeNs *int64) {

	type native struct {
		deb      []byte
		wall     int64
		syscalls int64
		verdict  buildsim.Verdict
	}
	buildNative := func(v reprotest.Variation) native {
		var img *fs.Image
		var pkgdir string
		t.do("baseimg.assemble", op, func() { img = baseimg.WithBinaries(tools.Names...) })
		ls.us("debpkg.materialize_us", t.do("debpkg.materialize", op, func() { pkgdir = spec.Materialize(img, v.BuildRoot) }))
		ls.us("derive.treehash_us", t.do("derive.treehash", op, func() { img.Hash() }))
		var snap *kernel.Snapshot
		ls.us("kernel.prepare_us", t.do("kernel.prepare", op, func() {
			snap = kernel.Prepare(kernel.Config{Profile: profile(), Image: img, Resolver: w.reg.Resolver()})
		}))
		var k *kernel.Kernel
		ls.us("kernel.boot_us", t.do("kernel.boot", op, func() {
			k = snap.Boot(kernel.BootConfig{Seed: v.HostSeed, Epoch: v.Epoch, NumCPU: v.NumCPU, Deadline: blDeadline})
		}))
		var proc *kernel.Proc
		var err error
		d := t.do("kernel.native_run", op, func() {
			proc = startNative(k, "/bin/dpkg-buildpackage", buildArgv, v.Env, pkgdir)
			err = k.Run()
		})
		ls.ms("kernel.native_run_ms", d)
		*actions += k.Actions()
		*runNs += d
		r := native{wall: k.Now(), syscalls: k.Stats.Syscalls}
		switch {
		case errors.Is(err, kernel.ErrTimeout):
			r.verdict = buildsim.Timeout
		case err != nil || proc.ExitCode() != 0:
			r.verdict = buildsim.Fail
		default:
			if n, rerr := k.ResolveInode(proc, debPath(spec), true); rerr == 0 && n != nil && !n.IsDir() {
				r.deb = n.Data
			} else {
				r.verdict = buildsim.Fail
			}
		}
		return r
	}

	b1 := buildNative(v1)
	out.BLTime = b1.wall
	if secs := float64(b1.wall) / 1e9; secs > 0 {
		out.SyscallRate = float64(b1.syscalls) / secs
	}
	if b1.verdict != "" {
		out.BL = b1.verdict
		return
	}
	b2 := buildNative(v2)
	if b2.verdict != "" {
		out.BL = b2.verdict
		return
	}
	var s1, s2 []byte
	ls.us("stripnd.strip_us", t.do("stripnd.strip", op, func() { s1 = stripnd.Strip(b1.deb) }))
	ls.us("stripnd.strip_us", t.do("stripnd.strip", op, func() { s2 = stripnd.Strip(b2.deb) }))
	out.BL = buildsim.Irreproducible
	if bytes.Equal(s1, s2) {
		out.BL = buildsim.Reproducible
	}

	// DetTrace: one image, one template, two host-perturbed forks.
	var img *fs.Image
	var pkgdir string
	t.do("baseimg.assemble", op, func() { img = baseimg.WithBinaries(tools.Names...) })
	ls.us("debpkg.materialize_us", t.do("debpkg.materialize", op, func() { pkgdir = spec.Materialize(img, "/build") }))
	ls.us("derive.treehash_us", t.do("derive.treehash", op, func() { img.Hash() }))
	cfg := core.Config{
		Image: img, Profile: profile(),
		PRNGSeed: seed ^ 0xD7, WorkingDir: pkgdir, Deadline: dtDeadline,
		DisableIncremental: true, // buildsim's default: Options.Incremental off
	}
	var tp *core.Template
	d := t.do("core.template", op, func() { tp = core.NewTemplate(cfg) })
	t.sub(t.last(), subSpan{"kernel.prepare", tp.PrepareNs})
	ls.us("core.template_us", d-tp.PrepareNs)
	ls.us("kernel.prepare_us", tp.PrepareNs)

	type dtRun struct {
		deb     []byte
		verdict buildsim.Verdict
		reason  string
		res     *core.Result
	}
	buildDT := func(v reprotest.Variation) dtRun {
		var cont *core.Container
		var res *core.Result
		ls.us("core.fork_us", t.do("core.fork", op, func() {
			cont = tp.NewContainer(core.HostRun{Seed: v.HostSeed, Epoch: v.Epoch, NumCPU: v.NumCPU})
		}))
		t.do("core.run", op, func() {
			res = cont.Run(w.reg, "/bin/dpkg-buildpackage", buildArgv, containerEnv)
		})
		t.sub(t.last(), runSubSpans(res)...)
		ls.ms("core.run_ms", spanNs(res, "run"))
		ls.us("kernel.boot_us", spanNs(res, "fork"))
		*actions += res.Actions
		*runNs += spanNs(res, "run")
		ls.us("obs.absorb_us", t.do("obs.absorb", op, func() { farmObs.Absorb(res.Obs) }))
		r := dtRun{res: res}
		if reason, ok := res.Unsupported(); ok {
			r.verdict, r.reason = buildsim.Unsupported, reason
		} else if res.TimedOut() {
			r.verdict = buildsim.Timeout
		} else if r.deb = imageFile(res.FS, debPath(spec)); res.Err != nil || res.ExitCode != 0 || r.deb == nil {
			r.verdict = buildsim.Fail
		}
		return r
	}
	d1 := buildDT(v1)
	out.DTTime = d1.res.WallTime
	out.Events = eventsOf(d1.res)
	counts.add(d1.res)
	*probeNs += w.probeObs(t, ls, op, d1.res)
	if d1.verdict != "" {
		out.DT, out.UnsupReason = d1.verdict, d1.reason
		return
	}
	d2 := buildDT(v2)
	if d2.verdict != "" {
		out.DT, out.UnsupReason = d2.verdict, d2.reason
		return
	}
	if out.BLTime > 0 {
		out.Slowdown = float64(out.DTTime) / float64(out.BLTime)
	}
	out.DT = buildsim.Irreproducible
	t.do("stripnd.compare", op, func() {
		if bytes.Equal(d1.deb, d2.deb) {
			out.DT = buildsim.Reproducible
		}
	})
}

// eventsOf is buildsim's Table-2 slice of a container result.
func eventsOf(res *core.Result) buildsim.Events {
	st := res.Stats
	ev := buildsim.Events{
		Syscalls: st.Syscalls, MemReads: st.MemReads, Rdtsc: st.RdtscTrapped,
		Sched: st.SchedRequests, Replays: st.BlockedReplays, Spawns: st.Spawns,
		ReadRetries: st.ReadRetries, WriteRetries: st.WriteRetries, UrandomOpens: st.UrandomOpens,
		Stops: res.Tracer.Stops, Buffered: res.Tracer.BufferedCalls, Flushes: res.Tracer.Flushes,
	}
	if res.Obs != nil {
		ev.WsForks = res.Obs.Counter("workspace_forks").Value()
		ev.WsMerges = res.Obs.Counter("workspace_merges").Value()
		ev.WsConflicts = res.Obs.Counter("workspace_conflicts").Value()
	}
	return ev
}

// probeObs times the flight recorder alone: replaying the run's retained
// events into a fresh ring (Recorder.Record per event) and marshalling the
// run's ring. Probes, not part of any op.
func (w *farmBuild) probeObs(t *tracer, ls *layerStats, op int64, res *core.Result) int64 {
	if len(res.Events) == 0 {
		return 0
	}
	id := t.begin("probe.obs", op)
	rec := obs.NewRecorder(0)
	d := t.do("obs.record", op, func() {
		for _, ev := range res.Events {
			rec.Record(ev.LTime, ev.Kind, ev.Num, ev.Pid, ev.Arg, ev.Ret)
		}
	})
	ls.obs("obs.record_ns", float64(d)/float64(len(res.Events)))
	ls.us("obs.marshal_us", t.do("obs.marshal", op, func() { res.Trace.MarshalBinary() }))
	return t.end(id)
}
