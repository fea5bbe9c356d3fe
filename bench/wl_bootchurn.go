package main

import (
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/prng"
	tools "repro/internal/workload"
)

// bootChurn starts and exits containers whose guest does next to nothing
// (the toolchain's ls over the package's source directory: one getdents and a
// write per unit — pwd would do, but its virtual time is the same for every
// image and a virtual-time metric that never moves with the seed cannot be
// told from a constant), over many distinct package images, so image
// materialisation, tree hashing, kernel.Prepare and the core template/fork
// paths do all the work. Per image: one cold core.New boot, then a template
// and four forked boots, each under a different host seed, epoch and core
// count. Cold and forked boots of the same image sit side by side, so a gain
// for one path that taxes the other shows in the same run.
type bootChurn struct {
	seed   uint64
	specs  []*debpkg.Spec
	reg    *guest.Registry
	hosts  [][bootsPerImage]core.HostRun
	native []int64 // virtual ns of the guest on the baseline kernel, per image
	ref    []bootRef
	in     uint64

	// corrupt, when set, rewrites a boot's stdout before it is checked —
	// bench_test.go's proof that a wrong byte is counted as a failed op.
	corrupt func(image, boot int, stdout string) string
}

// bootImages is the image count at scale 1: one repetition is 5x that many
// container boots.
const (
	bootImages    = 300
	bootsPerImage = 5
)

type bootRef struct {
	stdout string
	fsHash uint64
}

// lsArgv lists the package's src directory, relative to the working dir.
var lsArgv = []string{"ls", "src"}

func (w *bootChurn) image(i int) (*fs.Image, string) {
	img := baseimg.WithBinaries(tools.Names...)
	return img, w.specs[i].Materialize(img, "/build")
}

func (w *bootChurn) config(i int, img *fs.Image, pkgdir string) core.Config {
	h := w.hosts[i][0]
	return core.Config{
		Image: img, Profile: profile(),
		HostSeed: h.Seed, Epoch: h.Epoch, NumCPU: h.NumCPU,
		PRNGSeed:   w.seed ^ uint64(i)*0x9E3779B97F4A7C15,
		WorkingDir: pkgdir,
		Deadline:   dtDeadline,
	}
}

func (w *bootChurn) gen(seed uint64, scale float64) {
	w.seed = seed
	w.reg = toolchain()
	w.specs = stratified(seed, scale, []stratum{{"any", bootImages, anySpec}})
	rng := prng.NewHost(seed ^ 0xb007)
	d := newDigest()
	w.hosts = make([][bootsPerImage]core.HostRun, len(w.specs))
	w.native = make([]int64, len(w.specs))
	for i, s := range w.specs {
		for b := range w.hosts[i] {
			w.hosts[i][b] = hostRun(rng)
			d.num(w.hosts[i][b].Seed, uint64(w.hosts[i][b].Epoch), uint64(w.hosts[i][b].NumCPU))
		}
		d.str(s.Name + "/" + s.Version)
		// The bare work: the same ls on the baseline kernel, once per image. Its
		// virtual time is the denominator of virt_slowdown_x.
		img, pkgdir := w.image(i)
		d.num(img.Hash())
		snap := kernel.Prepare(kernel.Config{Profile: profile(), Image: img, Resolver: w.reg.Resolver()})
		w.native[i] = nativeRun(snap, w.hosts[i][0], "/bin/ls", lsArgv, pkgdir)
	}
	w.in = d.sum()
	w.ref = nil
}

func (w *bootChurn) inputDigest() uint64 { return w.in }

func (w *bootChurn) run(clients int, t *tracer, ls *layerStats) repOut {
	n := len(w.specs)
	first := w.ref == nil
	if first {
		w.ref = make([]bootRef, n)
	}
	type perClient struct {
		lat    []sample
		failed int64
		virt   int64
	}
	pc := make([]perClient, clients)
	outs := make([]uint64, n) // per-image output digest
	var counts runCounts

	forEachClient(clients, n, func(c, i int) {
		op := int64(i)
		var img *fs.Image
		var pkgdir string
		var th derive.TreeHash
		var cfg core.Config
		var cont *core.Container
		var res *core.Result
		var lat int64
		od := newDigest()

		// boot checks one finished container against the image's reference
		// and books it as one op with the latency accumulated so far.
		boot := func(b int) {
			stdout := res.Stdout
			if w.corrupt != nil {
				stdout = w.corrupt(i, b, stdout)
			}
			var fsHash uint64
			t.do("fs.image_hash", op, func() { fsHash = res.FS.Hash() })
			if b == 0 && first {
				w.ref[i] = bootRef{stdout, fsHash}
			}
			if res.Err != nil || res.ExitCode != 0 || stdout != w.ref[i].stdout || fsHash != w.ref[i].fsHash {
				pc[c].failed++
			}
			od.str(stdout)
			od.num(fsHash, uint64(res.ExitCode), uint64(res.WallTime))
			pc[c].virt += res.WallTime
			pc[c].lat = append(pc[c].lat, sample{float64(lat) / 1e6, 1})
			lat = 0
			if ls != nil {
				counts.add(res)
			}
		}
		runGuest := func() {
			d := t.do("core.run", op, func() { res = cont.Run(w.reg, "/bin/ls", lsArgv, containerEnv) })
			t.sub(t.last(), runSubSpans(res)...)
			lat += d
			if res.Forked {
				ls.us("kernel.boot_us", spanNs(res, "fork"))
			}
		}

		// Cold boot: everything from an unpacked source tree to exit.
		lat += t.do("baseimg.assemble", op, func() { img = baseimg.WithBinaries(tools.Names...) })
		d := t.do("debpkg.materialize", op, func() { pkgdir = w.specs[i].Materialize(img, "/build") })
		lat += d
		ls.us("debpkg.materialize_us", d)
		d = t.do("derive.treehash", op, func() { th = img.TreeHash() })
		lat += d
		ls.us("derive.treehash_us", d)
		cfg = w.config(i, img, pkgdir)
		var key derive.Key
		d = t.do("core.confighash", op, func() { key = derive.KeyFor(th.Root, core.ConfigHash(cfg)) })
		lat += d
		ls.ns("core.confighash_ns", d)
		od.num(key.Hash())
		d = t.do("core.cold_new", op, func() { cont = core.New(cfg) })
		lat += d
		ls.us("core.cold_new_us", d)
		runGuest()
		boot(0)

		// Forked boots: one template, four host-perturbed containers.
		var tp *core.Template
		d = t.do("core.template", op, func() { tp = core.NewTemplate(cfg) })
		t.sub(t.last(), subSpan{"kernel.prepare", tp.PrepareNs})
		lat += d
		ls.us("core.template_us", d-tp.PrepareNs)
		ls.us("kernel.prepare_us", tp.PrepareNs)
		for b := 1; b < bootsPerImage; b++ {
			h := w.hosts[i][b]
			d = t.do("core.fork", op, func() { cont = tp.NewContainer(h) })
			lat += d
			ls.us("core.fork_us", d)
			runGuest()
			boot(b)
		}
		outs[i] = od.sum()

		if t != nil {
			ls.set("debpkg.image_kb", imageKB(img))
			w.probeFork(t, ls, op, img, w.hosts[i][1])
		}
	})

	out := repOut{ops: int64(n * bootsPerImage)}
	var native, virt int64
	od := newDigest()
	for i := range outs {
		od.num(outs[i])
		native += w.native[i] * bootsPerImage
	}
	for _, p := range pc {
		out.lat = append(out.lat, p.lat...)
		out.failed += p.failed
		virt += p.virt
	}
	out.digest = od.sum()
	out.slowdown = float64(virt) / float64(native)
	out.virtUsPerOp = float64(virt) / 1e3 / float64(out.ops)
	if ls != nil {
		counts.publish(ls, out.ops)
	}
	return out
}

// probeFork times fs.FS.Fork of a frozen base alone: the harness populates
// and freezes the image the way kernel.Prepare does, then forks it the way
// Snapshot.Boot does. A probe, not part of any op.
func (w *bootChurn) probeFork(t *tracer, ls *layerStats, op int64, img *fs.Image, h core.HostRun) {
	id := t.begin("probe.fs_fork", op)
	clock := func() int64 { return h.Epoch * 1e9 }
	base := fs.New(profile(), clock, prng.NewHost(h.Seed))
	base.Populate(img)
	base.Freeze()
	d := t.do("fs.fork", op, func() { base.Fork(clock, prng.NewHost(h.Seed^1)) })
	ls.us("fs.fork_us", d)
	t.end(id)
}
