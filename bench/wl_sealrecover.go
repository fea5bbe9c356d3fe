package main

import (
	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/ttd"
	tools "repro/internal/workload"
)

// sealRecover builds DetTrace-buildable packages in checkpoint mode with
// delta seals on, files every seal in a derive.MemStore, then restores:
// core.Resume from every third seal and six ttd seeks per package. It is
// the only workload where filesystem seal/delta/restore, the kernel and core
// checkpoint paths, the derivation store and the debugger do most of the
// work. It uses fs for writes-then-freeze where boot-churn uses it for
// fork-then-read, so a seal optimisation that taxes forks shows across the
// two.
type sealRecover struct {
	reg   *guest.Registry
	pkgs  []*sealPkg
	store *derive.MemStore
	in    uint64
}

type sealPkg struct {
	cfg      core.Config // the sealed run's config, sink attached per run
	key      derive.Key
	tp       *core.Template
	host     core.HostRun
	seekFrac [3]float64 // seek instants as fractions of the run's logical length
	nativeNs int64      // virtual ns of the native build
	ref      *sealRef
}

// sealRef is the uninterrupted build every restore is compared against.
type sealRef struct {
	fs     *fs.Image
	fsHash uint64
	stdout string
	wall   int64
	ring   uint64
	ltime  int64
	seals  int
	exit   int
}

var buildArgv = []string{"dpkg-buildpackage", "-b"}

func (w *sealRecover) gen(seed uint64, scale float64) {
	w.reg = toolchain()
	specs := stratified(seed, scale, buildableStrata)
	rng := prng.NewHost(seed ^ 0x5ea1)
	d := newDigest()
	w.pkgs = nil
	for i, spec := range specs {
		img := baseimg.WithBinaries(tools.Names...)
		pkgdir := spec.Materialize(img, "/build")
		p := &sealPkg{host: hostRun(rng)}
		p.cfg = core.Config{
			Image: img, Profile: profile(),
			HostSeed: p.host.Seed, Epoch: p.host.Epoch, NumCPU: p.host.NumCPU,
			PRNGSeed:   seed ^ uint64(i+1)*0xD7,
			WorkingDir: pkgdir,
			Deadline:   dtDeadline,
		}
		p.key = derive.KeyFor(img.Hash(), core.ConfigHash(p.cfg))
		p.tp = core.NewTemplate(p.cfg)
		for s := range p.seekFrac {
			p.seekFrac[s] = 0.1 + 0.8*rng.Float64()
		}
		// The bare work: the same package built on the baseline kernel.
		snap := kernel.Prepare(kernel.Config{Profile: profile(), Image: img, Resolver: w.reg.Resolver()})
		p.nativeNs = nativeRun(snap, p.host, "/bin/dpkg-buildpackage", buildArgv, pkgdir)
		d.num(p.key.Hash(), p.host.Seed)
		w.pkgs = append(w.pkgs, p)
	}
	w.in = d.sum()
}

func (w *sealRecover) inputDigest() uint64 { return w.in }

func discardSeal(*core.Checkpoint) {}

func ringDigest(res *core.Result) uint64 { return obs.DigestBytes(res.Trace.MarshalBinary()) }

func (w *sealRecover) run(clients int, t *tracer, ls *layerStats) repOut {
	// A fresh store per repetition: every repetition files the same seals.
	w.store = derive.NewMemStore()
	type perClient struct {
		lat              []sample
		ops, failed      int64
		virt, sealedVirt int64
	}
	pc := make([]perClient, clients)
	outs := make([]uint64, len(w.pkgs))
	var counts runCounts

	forEachClient(clients, len(w.pkgs), func(c, i int) {
		p := w.pkgs[i]
		op := int64(i)
		job := uint64(i + 1)
		od := newDigest()
		done := func(ns int64, ok bool) {
			pc[c].ops++
			if !ok {
				pc[c].failed++
			}
			pc[c].lat = append(pc[c].lat, sample{float64(ns) / 1e6, 1})
		}

		// 1. The sealed build.
		var seals []*core.Checkpoint
		h := p.host
		h.CheckpointSink = func(cp *core.Checkpoint) { seals = append(seals, cp) }
		var cont *core.Container
		var res *core.Result
		ns := t.do("core.fork", op, func() { cont = p.tp.NewContainer(h) })
		ns += t.do("core.run", op, func() { res = cont.Run(w.reg, "/bin/dpkg-buildpackage", buildArgv, checkpointEnv) })
		t.sub(t.last(), runSubSpans(res)...)
		for _, cp := range seals {
			d := t.do("derive.store_put", op, func() {
				w.store.PutSeal(derive.SealKey{State: p.key, Job: job, Ordinal: cp.Ordinal()}, cp, cp.Digest())
			})
			ns += d
			ls.us("derive.store_put_us", d)
		}
		got := &sealRef{fs: res.FS, stdout: res.Stdout, wall: res.WallTime, ltime: res.LTime,
			seals: len(seals), exit: res.ExitCode}
		t.do("fs.image_hash", op, func() { got.fsHash = res.FS.Hash() })
		ls.us("obs.marshal_us", t.do("obs.marshal", op, func() { got.ring = ringDigest(res) }))
		if p.ref == nil {
			p.ref = got
		}
		ref := p.ref
		done(ns, res.Err == nil && got.exit == 0 && got.seals > 0 && got.fsHash == ref.fsHash &&
			got.stdout == ref.stdout && got.wall == ref.wall && got.ring == ref.ring && got.seals == ref.seals)
		od.str(got.stdout)
		od.num(got.fsHash, uint64(got.wall), got.ring, uint64(got.ltime), uint64(got.seals))
		pc[c].virt += res.WallTime
		pc[c].sealedVirt += res.WallTime
		if ls != nil {
			counts.add(res)
			ls.ms("core.run_ms", spanNs(res, "run"))
			for _, cp := range seals {
				if st := cp.Kernel().FSSealStats(); st.Delta {
					ls.obs("fs.seal_delta_bytes", float64(st.FreshBytes))
				} else {
					ls.obs("fs.seal_full_bytes", float64(st.TotalBytes))
				}
			}
		}

		// 2. Resume from every third seal, fetched back from the store.
		cfg := p.cfg
		cfg.CheckpointSink = discardSeal // the resumed ring re-marks the same seals
		latest := w.store.Latest(p.key, job)
		for ord := 3; ord <= latest; ord += 3 {
			var cp *core.Checkpoint
			d := t.do("derive.store_get", op, func() {
				if v, _, ok := w.store.Seal(derive.SealKey{State: p.key, Job: job, Ordinal: ord}); ok {
					cp, _ = v.(*core.Checkpoint)
				}
			})
			ls.us("derive.store_get_us", d)
			if cp == nil {
				done(d, false)
				continue
			}
			var r2 *core.Result
			var err error
			rd := t.do("core.resume", op, func() { r2, err = core.Resume(cp, w.reg, cfg) })
			ls.ms("core.resume_ms", rd)
			ok := err == nil && r2.Err == nil && r2.Stdout == ref.stdout && r2.WallTime == ref.wall
			if ok {
				t.do("fs.image_equal", op, func() { ok = r2.FS.Equal(ref.fs) })
				t.do("obs.marshal", op, func() { ok = ok && ringDigest(r2) == ref.ring })
				pc[c].virt += r2.WallTime - cp.VirtualNow()
				od.num(uint64(ord), uint64(r2.WallTime), uint64(cp.VirtualNow()))
			}
			done(d+rd, ok)
		}

		// 3. Seek to three seeded logical instants, twice each: both visits
		// of one instant must show the same state. (Six seeks, not four,
		// so that seeks are a clear majority of a package's ops and
		// op_ms_p50 sits inside their cluster instead of on the boundary
		// between a 1 ms seek and a 10 ms resume.)
		sess := &ttd.Session{Cfg: cfg, Reg: w.reg, Seals: seals,
			Launch: func(c core.Config) *core.Result {
				return core.New(c).Run(w.reg, "/bin/dpkg-buildpackage", buildArgv, checkpointEnv)
			}}
		for _, frac := range p.seekFrac {
			instant := int64(frac * float64(ref.ltime))
			var views [2]*ttd.View
			for v := range views {
				var err error
				d := t.do("ttd.seek", op, func() { views[v], err = sess.SeekTo(instant) })
				ls.ms("ttd.seek_ms", d)
				ok := err == nil
				if ok && v == 1 {
					a, b := views[0], views[1]
					ok = a != nil && a.LTime == b.LTime && a.Actions == b.Actions &&
						a.EntropyDraws == b.EntropyDraws && a.FS.Hash() == b.FS.Hash()
				}
				if err == nil {
					ls.obs("ttd.seek_replayed_actions", float64(views[v].ReplayedActions))
					od.num(uint64(views[v].LTime), uint64(views[v].Actions), uint64(views[v].ReplayedActions))
				}
				done(d, ok)
			}
		}
		outs[i] = od.sum()

		if t != nil {
			w.probeSeals(t, ls, op, p, seals)
			w.probePlain(t, ls, op, p, spanNs(res, "run"))
		}
	})

	var out repOut
	var virt, sealedVirt, native int64
	od := newDigest()
	for i := range outs {
		od.num(outs[i])
		native += w.pkgs[i].nativeNs
	}
	for _, p := range pc {
		out.ops += p.ops
		out.failed += p.failed
		out.lat = append(out.lat, p.lat...)
		virt += p.virt
		sealedVirt += p.sealedVirt
	}
	out.digest = od.sum()
	out.slowdown = float64(sealedVirt) / float64(native)
	out.virtUsPerOp = float64(virt) / 1e3 / float64(out.ops)
	if ls != nil {
		counts.publish(ls, out.ops)
	}
	return out
}

// probeSeals times the filesystem seal primitives alone on the build's own
// chain: validate it, fold and restore it, seal the restored tree in full,
// then replay the real difference between the last two seals onto it and
// seal again as a delta. Probes, not part of any op.
func (w *sealRecover) probeSeals(t *tracer, ls *layerStats, op int64, p *sealPkg, seals []*core.Checkpoint) {
	if len(seals) < 2 {
		return
	}
	id := t.begin("probe.fs_seal", op)
	defer t.end(id)
	prev := seals[len(seals)-2].Kernel().FSSealChain()
	last := seals[len(seals)-1].Kernel().FSSealChain()
	ls.us("fs.seal_validate_us", t.do("fs.seal_validate", op, func() { last.ChainValid() }))

	clock := func() int64 { return p.host.Epoch * 1e9 }
	var live *fs.FS
	ls.us("fs.seal_restore_us", t.do("fs.seal_restore", op, func() {
		live = prev.Reconstitute().Resume(clock, prng.NewHost(p.host.Seed))
	}))
	ls.us("fs.seal_full_us", t.do("fs.seal_full", op, func() { live.SealCheckpoint(false) }))

	before := prev.Tree().SnapshotImage(prev.Tree().Root)
	after := last.Tree().SnapshotImage(last.Tree().Root)
	ctx := fs.LookupCtx{Root: live.Root, Cwd: live.Root}
	for _, path := range after.Paths() {
		e := after.Entries[path]
		if old, ok := before.Entries[path]; ok && old.LeafHash() == e.LeafHash() {
			continue
		}
		dir, name, err := live.ResolveParent(ctx, path)
		if err != abi.OK {
			continue
		}
		switch e.Mode & abi.ModeTypeMask {
		case abi.ModeDir:
			live.Mkdir(dir, name, e.Mode&0o7777, e.UID, e.GID)
		case abi.ModeRegular:
			n, cerr := live.CreateFile(dir, name, e.Mode&0o7777, e.UID, e.GID)
			if cerr != abi.OK {
				if n, cerr = live.Resolve(ctx, path, true); cerr != abi.OK {
					continue
				}
				n.Truncate(0)
			}
			n.WriteAt(e.Data, 0)
		}
	}
	ls.us("fs.seal_delta_us", t.do("fs.seal_delta", op, func() { live.SealCheckpoint(true) }))
}

// probePlain builds the package once more without a checkpoint sink or the
// driver's trampoline, to price checkpoint mode on the host clock.
func (w *sealRecover) probePlain(t *tracer, ls *layerStats, op int64, p *sealPkg, sealedRunNs int64) {
	id := t.begin("probe.plain_build", op)
	defer t.end(id)
	res := p.tp.NewContainer(p.host).Run(w.reg, "/bin/dpkg-buildpackage", buildArgv, containerEnv)
	if plain := spanNs(res, "run"); plain > 0 {
		ls.obs("core.checkpoint_overhead_frac", float64(sealedRunNs-plain)/float64(plain))
	}
}
