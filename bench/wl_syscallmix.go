package main

import (
	"strconv"

	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/prng"
)

// syscallMix runs four benchmark-owned guests, each as its own container
// forked from one template: set-up is ~0 and the guests do nothing but issue
// system calls, so core's handlers, the seccomp verdicts, the tracer, kernel
// dispatch, the scheduler and filesystem writes carry the workload. The
// buffered guest and the traced-io guest are the two sides of the
// interception layer: calls served in the tracee beside calls that stop.
type syscallMix struct {
	seed   uint64
	reg    *guest.Registry
	img    *fs.Image
	tp     *core.Template
	argv   [][]string        // per guest kind
	hosts  [][]core.HostRun  // [run][guest kind]
	native [mixKinds]int64   // virtual ns per guest kind on the baseline kernel
	ref    [mixKinds]*mixRef // reference outputs per guest kind
	in     uint64
}

// mixKinds is the number of guest programs: buffered, traced-io, spawn, threads.
const mixKinds = 4

// mixRuns is how many rounds of the four guests one repetition runs at
// scale 1.
const mixRuns = 48

type mixRef struct {
	stdout   string
	fsHash   uint64
	wall     int64
	syscalls int64
}

func (w *syscallMix) gen(seed uint64, scale float64) {
	w.seed = seed
	w.reg = guest.NewRegistry()
	registerGuests(w.reg)
	rng := prng.NewHost(seed ^ 0x5ca11)

	// Call counts and file sizes follow the seed inside a +-3% band: two
	// seeds issue different calls, but the mix of cheap buffered calls and
	// dear traced ones — which sets ops_per_s — stays comparable.
	around := func(n int) int { return n - 3*n/100 + rng.Intn(6*n/100+1) }
	w.argv = [][]string{
		{"buffered", strconv.Itoa(around(4000))},
		{"traced-io", strconv.Itoa(around(120)), strconv.Itoa(around(2048))},
		{"spawn", strconv.Itoa(around(40)), strconv.Itoa(around(1500))},
		{"threads", "3", strconv.Itoa(around(60)), strconv.Itoa(around(1024))},
	}

	w.img = baseimg.Minimal()
	for _, name := range []string{"buffered", "traced-io", "spawn", "spawn-child", "threads"} {
		w.img.AddFile("/bin/"+name, 0o755, guest.MakeExe(name, nil))
	}
	blob := make([]byte, around(8192))
	rng.Fill(blob)
	w.img.AddFile("/data/blob", 0o644, blob)
	w.img.AddDir("/work", 0o755)

	runs := int(float64(mixRuns)*scale + 0.5)
	if runs < 2 {
		runs = 2
	}
	w.hosts = make([][]core.HostRun, runs)
	d := newDigest()
	d.num(w.img.Hash())
	for _, a := range w.argv {
		for _, s := range a {
			d.str(s)
		}
	}
	for r := range w.hosts {
		w.hosts[r] = make([]core.HostRun, mixKinds)
		for g := range w.hosts[r] {
			w.hosts[r][g] = hostRun(rng)
			d.num(w.hosts[r][g].Seed)
		}
	}
	w.in = d.sum()

	w.tp = core.NewTemplate(w.config())
	// The bare work: each guest once on the baseline kernel.
	snap := kernel.Prepare(kernel.Config{Profile: profile(), Image: w.img, Resolver: w.reg.Resolver()})
	for g := range w.argv {
		w.native[g] = nativeRun(snap, w.hosts[0][g], "/bin/"+w.argv[g][0], w.argv[g], "/work")
	}
	w.ref = [mixKinds]*mixRef{}
}

func (w *syscallMix) config() core.Config {
	return core.Config{Image: w.img, Profile: profile(), PRNGSeed: w.seed ^ 0xD7,
		WorkingDir: "/work", Deadline: dtDeadline}
}

func (w *syscallMix) inputDigest() uint64 { return w.in }

func (w *syscallMix) run(clients int, t *tracer, ls *layerStats) repOut {
	type perClient struct {
		lat               []sample
		failed, ops, virt int64
	}
	pc := make([]perClient, clients)
	results := make([]*mixRef, len(w.hosts)*mixKinds)
	var counts runCounts
	var hostNs, calls, acts [mixKinds]int64

	// References come from the first run of each guest kind; fill them
	// before any client can race on them.
	if w.ref[0] == nil {
		for g := 0; g < mixKinds; g++ {
			w.ref[g], _, _ = w.runGuest(nil, 0, 0, g)
		}
	}
	// A client takes a whole round — the four guests, one container each —
	// so a latency sample is one round's wall time per syscall issued in it.
	// (Per container it would be two samples in one: the buffered guest's
	// 20k cheap calls against the others' dear ones, and the median would
	// sit on whichever mode the buffered run happened to land in.)
	forEachClient(clients, len(w.hosts), func(c, r int) {
		var roundNs, roundCalls int64
		for g := 0; g < mixKinds; g++ {
			i := r*mixKinds + g
			got, res, ns := w.runGuest(t, int64(i), r, g)
			results[i] = got
			if res.Err != nil || res.ExitCode != 0 || *got != *w.ref[g] {
				pc[c].failed += got.syscalls
			}
			pc[c].ops += got.syscalls
			pc[c].virt += got.wall
			roundNs += ns
			roundCalls += got.syscalls
			if ls != nil {
				counts.add(res)
				hostNs[g] += spanNs(res, "run")
				calls[g] += got.syscalls
				acts[g] += res.Actions
			}
		}
		pc[c].lat = append(pc[c].lat, sample{float64(roundNs) / 1e6 / float64(roundCalls), float64(roundCalls)})
	})

	var out repOut
	var virt, native int64
	od := newDigest()
	for i, got := range results {
		od.str(got.stdout)
		od.num(got.fsHash, uint64(got.wall), uint64(got.syscalls))
		native += w.native[i%mixKinds]
	}
	for _, p := range pc {
		out.ops += p.ops
		out.failed += p.failed
		out.lat = append(out.lat, p.lat...)
		virt += p.virt
	}
	out.digest = od.sum()
	out.slowdown = float64(virt) / float64(native)
	out.virtUsPerOp = float64(virt) / 1e3 / float64(out.ops)
	if ls != nil {
		counts.publish(ls, out.ops)
		ls.obs("core.buffered_ns_per_call", float64(hostNs[0])/float64(calls[0]))
		ls.obs("core.traced_ns_per_call", float64(hostNs[1])/float64(calls[1]))
		spawns, _ := strconv.Atoi(w.argv[2][1])
		ls.obs("core.spawn_us", float64(hostNs[2])/1e3/float64(spawns*len(w.hosts)))
		rounds, _ := strconv.Atoi(w.argv[3][2])
		ls.obs("core.thread_sync_us", float64(hostNs[3])/1e3/float64(rounds*len(w.hosts)))
		ls.obs("kernel.actions_per_s", float64(acts[0]+acts[1]+acts[2]+acts[3])/
			(float64(hostNs[0]+hostNs[1]+hostNs[2]+hostNs[3])/1e9))
	}
	return out
}

// runGuest forks one container from the template and runs guest kind g
// under the r'th host perturbation.
func (w *syscallMix) runGuest(t *tracer, op int64, r, g int) (*mixRef, *core.Result, int64) {
	var cont *core.Container
	var res *core.Result
	ns := t.do("core.fork", op, func() { cont = w.tp.NewContainer(w.hosts[r][g]) })
	ns += t.do("core.run", op, func() { res = cont.Run(w.reg, "/bin/"+w.argv[g][0], w.argv[g], containerEnv) })
	t.sub(t.last(), runSubSpans(res)...)
	got := &mixRef{stdout: res.Stdout, wall: res.WallTime, syscalls: res.Stats.SyscallsRaw}
	t.do("fs.image_hash", op, func() { got.fsHash = res.FS.Hash() })
	if got.syscalls == 0 {
		got.syscalls = 1 // a guest that failed to start still counts as an attempted op
	}
	return got, res, ns
}
