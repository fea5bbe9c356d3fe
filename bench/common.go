package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/prng"
	tools "repro/internal/workload"
)

// containerEnv is the canonical container environment the evaluation uses
// (buildsim's containerEnv): inside DetTrace the environment is an input.
var containerEnv = []string{
	"PATH=/bin",
	"USER=root",
	"HOME=/root",
	"DEB_BUILD_OPTIONS=",
	"LC_ALL=C",
	"TZ=UTC",
}

// checkpointEnv adds the build driver's trampoline gate: checkpoint-mode
// builds self-exec at phase boundaries so the kernel can seal there.
var checkpointEnv = append(append([]string{}, containerEnv...), "DETTRACE_CHECKPOINT=1")

// Virtual deadlines of §6.1 (buildsim.BLDeadline / DTDeadline).
const (
	blDeadline = 30 * 60 * 1e9
	dtDeadline = 2 * 3600 * 1e9
)

// toolchain returns a registry holding the build toolchain.
func toolchain() *guest.Registry {
	reg := guest.NewRegistry()
	tools.Register(reg)
	return reg
}

func profile() *machine.Profile { return machine.CloudLabC220G5() }

// hostRun draws one physical-run perturbation: which boot of which machine.
// None of it may reach an output byte under DetTrace.
func hostRun(rng *prng.Host) core.HostRun {
	return core.HostRun{
		Seed:   rng.Uint64(),
		Epoch:  1_300_000_000 + rng.Int63n(400_000_000),
		NumCPU: 1 + rng.Intn(16),
	}
}

// forEachClient is the closed loop: clients goroutines each take the next
// index when their previous call returns. One client runs inline, so the
// traced repetition stays on the harness goroutine.
func forEachClient(clients, n int, fn func(client, i int)) {
	if clients <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// nativeRun boots path on the baseline (nondeterministic) kernel from a
// prepared snapshot and runs it to completion: the bare work a DetTrace run
// is compared against on the virtual clock.
// It returns the virtual time the run took.
func nativeRun(snap *kernel.Snapshot, h core.HostRun, path string, argv []string, cwd string) int64 {
	k := snap.Boot(kernel.BootConfig{Seed: h.Seed, Epoch: h.Epoch, NumCPU: h.NumCPU, Deadline: blDeadline})
	startNative(k, path, argv, containerEnv, cwd)
	_ = k.Run() // a failed run still took the virtual time it took; the slowdown it skews is checked per repetition
	return k.Now()
}

// startNative execs path as the kernel's first process, in cwd when the
// image has it — what buildsim's native builds and core.Container.Run do.
func startNative(k *kernel.Kernel, path string, argv, env []string, cwd string) *kernel.Proc {
	init := func(t *kernel.Thread) int {
		p := &guest.Proc{T: t}
		p.Exec(path, argv, env)
		return 127 // exec failed
	}
	proc := k.Start(init, argv, env)
	if n, err := k.ResolveInode(proc, cwd, true); err == abi.OK && n.IsDir() {
		proc.Cwd, proc.CwdPath = n, cwd
	}
	return proc
}

// imageKB is the image's file payload.
func imageKB(img *fs.Image) float64 {
	var n int
	for _, e := range img.Entries {
		n += len(e.Data)
	}
	return float64(n) / 1024
}

// runSubSpans turns a container result's own lifecycle accounting (public
// core.Result.Spans: boot|fork, flush) into child spans of the harness's
// core.run span: kernel setup before the run loop and the filesystem
// snapshot of assembleResult after it. What remains as core.run's self time
// is the container's run loop: core's handlers with the tracer, scheduler,
// kernel dispatch and guest beneath them, which cannot be told apart from
// outside.
func runSubSpans(res *core.Result) []subSpan {
	var parts []subSpan
	for _, sp := range res.Spans {
		switch sp.Name {
		case "boot", "fork":
			parts = append(parts, subSpan{"kernel.boot", sp.RealNs})
		case "flush":
			parts = append(parts, subSpan{"fs.snapshot", sp.RealNs})
		}
	}
	return parts
}

// spanNs returns the RealNs of the named lifecycle span of a result.
func spanNs(res *core.Result, name string) int64 {
	for _, sp := range res.Spans {
		if sp.Name == name {
			return sp.RealNs
		}
	}
	return 0
}

// digest is a running output digest.
type digest struct{ h *derive.Hasher }

func newDigest() digest { return digest{derive.NewHasher()} }

func (d digest) num(vs ...uint64) {
	for _, v := range vs {
		d.h.Num(v)
	}
}
func (d digest) str(s string) { d.h.Str(s) }
func (d digest) sum() uint64  { return d.h.Sum() }

// runCounts sums the exact counters a container run exposes through public
// core.Result fields; publish turns them into the per-op layer metrics.
type runCounts struct {
	syscalls, stops, buffered, flushes, sched, events int64
}

func (rc *runCounts) add(res *core.Result) {
	rc.syscalls += res.Stats.SyscallsRaw
	rc.stops += res.Tracer.Stops
	rc.buffered += res.Tracer.BufferedCalls
	rc.flushes += res.Tracer.Flushes
	rc.sched += res.Stats.SchedRequests
	rc.events += res.Trace.Total()
}

func (rc *runCounts) publish(ls *layerStats, ops int64) {
	n := float64(ops)
	ls.set("kernel.syscalls_per_op", float64(rc.syscalls)/n)
	ls.set("tracer.stops_per_op", float64(rc.stops)/n)
	ls.set("tracer.buffered_per_op", float64(rc.buffered)/n)
	ls.set("tracer.flushes_per_op", float64(rc.flushes)/n)
	ls.set("tracer.buffered_frac", float64(rc.buffered)/float64(rc.buffered+rc.stops))
	ls.set("sched.requests_per_op", float64(rc.sched)/n)
	ls.set("obs.events_per_op", float64(rc.events)/n)
}
