// Package buildsim is the evaluation driver: the parallel build farm that
// runs the paper's §6.1 protocol over the debpkg universe. For every package
// it performs the reprotest double build twice — natively under adversarial
// environment perturbation, and inside the DetTrace container — compares the
// .debs bitwise with diffoscope/stripnd semantics, and classifies the result
// into the Table 1 cells. The aggregate layer (report.go) produces Table 1,
// Table 2, the §7.1.1 breakdown and the Figure 5 data; studies.go holds the
// §6.1 stock baseline, §7.1.3 rr, §7.2 LLVM and §7.3 portability studies.
//
// The farm itself obeys the discipline it measures: BuildAll fans packages
// across a Jobs-sized worker pool, and its output is bitwise-independent of
// Jobs. Every package's randomness derives from Options.Seed and the spec
// alone (never from scheduling), results land in spec order, and progress
// callbacks are serialized.
package buildsim

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/farm"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/reprotest"
	"repro/internal/stripnd"
	"repro/internal/ttd"
	"repro/internal/workload"
)

// Virtual build deadlines from §6.1: 30 minutes for the native baseline,
// 2 hours under DetTrace.
const (
	BLDeadline = 30 * 60 * 1e9  // ns of virtual time
	DTDeadline = 2 * 3600 * 1e9 // ns of virtual time
)

// Verdict classifies one double build, named like Table 1's cells.
type Verdict string

// The five outcomes of the build-twice protocol.
const (
	Reproducible   Verdict = "reproducible"
	Irreproducible Verdict = "irreproducible"
	Unsupported    Verdict = "unsupported"
	Timeout        Verdict = "timeout"
	Fail           Verdict = "fail"
)

// Options configures a build farm.
type Options struct {
	// Seed selects the adversarial environments; per-package seeds derive
	// from it and the spec, never from scheduling.
	Seed uint64
	// Jobs is the worker pool size (0 = GOMAXPROCS). It must not affect
	// results — only wall-clock time.
	Jobs int
	// Experimental enables the §5.9/§5.4 extensions (container-internal
	// sockets and scheduler-ordered signals) in the DetTrace runs.
	Experimental bool
	// NoSyscallBuf disables the in-tracee syscall buffer in the DetTrace
	// runs (the buffering ablation): light intercepted calls trap again.
	NoSyscallBuf bool
	// DisableTemplates forces every kernel and container in the farm onto
	// the cold construction path instead of forking prepared templates (the
	// template-reuse mechanism ablation). Like Jobs, it must not change any
	// build output — only setup cost.
	DisableTemplates bool
	// NoObservability disables the per-container flight recorder in the
	// DetTrace runs (the observability mechanism ablation). Like Jobs and
	// DisableTemplates it must not change any build output — the recorder
	// observes, it never feeds back — and templates_test.go pins that.
	NoObservability bool
	// NoWorkspaces disables copy-on-write thread workspaces in the DetTrace
	// runs (the ISSUE 7 ablation): sibling-thread compute serializes on the
	// logical token again. It must not change any build output — workspaces
	// only relax the physical clock — so only javac packages' DTTime and
	// Slowdown move.
	NoWorkspaces bool
	// KeepTraces retains each package's flight-recorder ring, span list and
	// event count in Out (for `benchtab -trace`). Off by default because the
	// ring legitimately differs across setup paths — forked containers record
	// COW breaks, cold boots don't, and span wall-clock durations are host
	// accidents — while Out is otherwise pinned bitwise-identical across
	// every mechanism ablation.
	KeepTraces bool
	// Checkpoints runs the DetTrace builds in checkpoint mode: the build
	// driver self-execs at phase boundaries (post-configure, post-compile)
	// and the kernel seals a restorable checkpoint at each of those quiescent
	// stops, pinned in the bounded farm-wide seal store while the job is in
	// flight.
	// Checkpoint mode is its own determinism equivalence class — the extra
	// execs advance virtual time — so its outputs are compared against other
	// checkpointed runs, never against plain ones.
	Checkpoints bool
	// InjectFaults schedules deterministic faults (worker crashes, checkpoint
	// corruption, restore failures) from per-job fault plans derived from
	// Seed — see reprotest.PlanFor. Crashed jobs recover from their last
	// valid checkpoint with bounded retries, degrading to a cold replay; the
	// farm's outputs must be bitwise-unchanged by the whole ordeal (faults.go
	// and faults_test.go pin that). Requires Checkpoints.
	InjectFaults bool
	// Incremental enables derivation-store rebuild reuse (ISSUE 8): patched
	// packages fork the freshest checkpoint seal whose prefix read no dirty
	// file instead of cold-building, re-executing only the invalidated
	// compile units. Joined (inverted) into the container config hash as
	// core.Config.DisableIncremental, so incremental and non-incremental
	// runs occupy disjoint derivation-key spaces — while their outputs stay
	// bitwise-identical, which incremental_test.go pins.
	Incremental bool
	// Distributed routes BuildAll through the internal/farm coordinator
	// instead of the in-process pool: worker nodes register over the farm
	// protocol, jobs are placed by rendezvous hashing, and prepared state is
	// forked from the coordinator's content-addressed shard store. Like Jobs,
	// the whole arrangement must not change any output byte — farm_test.go
	// pins DeepEqual across node counts, placement seeds and fault schedules.
	Distributed bool
	// Nodes is the distributed farm's worker count (0 = DefaultFarmNodes).
	Nodes int
	// NodeSlots is each worker's concurrent-build capacity (0 = 1).
	NodeSlots int
	// PlacementSeed selects the distributed farm's placement schedule; it
	// must never reach an output byte.
	PlacementSeed uint64
	// FarmPlan is the farm-level fault schedule (node crash, message loss
	// and duplication — see reprotest.FarmPlanFor). A node-killing plan
	// requires Checkpoints: the doomed build dies mid-flight and its job is
	// recovered on another node from the freshest seal in the shard store.
	// It also carries the Byzantine plane (reprotest.ByzantinePlanFor) when
	// Attest is on: lying builders, corrupted attestations, equivocating log
	// servers and withheld co-signatures.
	FarmPlan reprotest.FaultPlan
	// Attest enables the farm's Byzantine-robust attestation chain (ISSUE
	// 10): every completed job is independently re-executed by rebuilder
	// nodes, quorum-admitted with dissent naming and quarantine, and sealed
	// into an epoch-batched transparency log so consumers can verify
	// artifacts rebuild-free. Requires Distributed. Like everything else in
	// the farm layer, it must not change any output byte — attest_test.go
	// pins the admitted set and the Out bodies DeepEqual across fault
	// schedules and farm shapes.
	Attest bool
	// Rebuilders is the independent re-executions certifying each job
	// (0 = farm default, 2).
	Rebuilders int
	// LogServers is the transparency-log replica count (0 = farm default, 3).
	LogServers int

	// Test overrides for the store caps (templateCap, sealCap) and the local
	// restore-attempt budget (restoreRetries); zero selects the constant.
	templateCap, sealCap, restoreRetries int

	// noDeltaSeals maps onto core.Config.DisableDeltaSeals, so the ablation
	// table (ablation.go) can switch every mechanism on the farm.
	noDeltaSeals bool

	// jobSeq hands each checkpointed build a farm-unique identity for its
	// seal keys. Scheduling-dependent, so it must never influence results —
	// only which store slots a job's checkpoints occupy.
	jobSeq atomic.Uint64

	// Farm-wide prepared-state stores and setup accounting (templates.go).
	// Lazily initialized; all access is concurrency-safe, so one Options may
	// drive the whole Jobs-sized worker pool.
	cacheMu sync.Mutex
	store   *stores
	setup   setupCounters
	obsReg  *obs.Registry

	// deriveRec is the farm's derivation-store event ring: one KindDeriveHit
	// or KindDeriveMiss per store lookup, at template, phase-seal and
	// compile-unit granularity (templates.go: recordDerive). Farm-level and
	// mutex-guarded — unlike container rings it is written by the whole
	// worker pool.
	deriveMu    sync.Mutex
	deriveRec   *obs.Recorder
	deriveLTime int64

	// lastFarm is the cluster behind the most recent distributed BuildAll,
	// kept so FarmStats/FarmReports can expose its accounting (farm.go).
	farmMu   sync.Mutex
	lastFarm *farm.Cluster
}

// derive returns a fresh farm — its own stores, counters and registry — that
// carries every exported field of o with override applied on top. It is the
// one way a study or gate builds a farm from its caller's, so the caller's
// mechanism flags (NoWorkspaces, NoSyscallBuf, Experimental, …) reach every
// build the study runs.
func (o *Options) derive(override func(*Options)) *Options {
	d := &Options{}
	src, dst := reflect.ValueOf(o).Elem(), reflect.ValueOf(d).Elem()
	for i := 0; i < src.NumField(); i++ {
		if src.Type().Field(i).IsExported() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	override(d)
	return d
}

// Out is the full record of one package's evaluation.
type Out struct {
	Spec  *debpkg.Spec
	Index int // position in the BuildAll input

	BL Verdict // baseline double-build verdict
	DT Verdict // DetTrace verdict; "" when the baseline failed or timed out

	// UnsupReason is the container's UnsupportedError operation when DT ==
	// Unsupported ("busy-wait", "socket", "cross-process signal",
	// "syscall:<name>").
	UnsupReason string

	BLTime      int64   // virtual ns of the first baseline build
	DTTime      int64   // virtual ns of the first DetTrace build
	SyscallRate float64 // weighted syscalls per second of baseline time
	Slowdown    float64 // DTTime/BLTime, set when DT completed
	Threaded    bool    // javac-style threaded build (Fig. 5's open circles)

	// Events are the DetTrace run's weighted tracer counters (Table 2).
	Events Events

	// RecEvents is how many flight-recorder events the first DetTrace run
	// produced; Trace and Spans are that run's retained event ring and
	// lifecycle spans. Populated only under Options.KeepTraces (for
	// `benchtab -trace`): the ring is mechanism-dependent metadata, not
	// build output.
	RecEvents int64
	Trace     []obs.Event
	Spans     []obs.Span
}

// Events is the per-package slice of Table 2: weighted tracer event counts
// from the DetTrace build.
type Events struct {
	Syscalls     int64
	MemReads     int64
	Rdtsc        int64
	Sched        int64
	Replays      int64
	Spawns       int64
	ReadRetries  int64
	WriteRetries int64
	UrandomOpens int64

	// Tracer-session counters: ptrace stops paid, syscalls serviced through
	// the in-tracee buffer, and the batched flushes that drained them.
	Stops    int64
	Buffered int64
	Flushes  int64

	// Workspace-mode counters (ISSUE 7): thread workspaces forked, merged
	// back in vTID order, and rank-resolved merge conflicts. Zero when
	// workspaces are disabled or the build never clones a thread.
	WsForks     int64
	WsMerges    int64
	WsConflicts int64
}

func eventsFrom(st kernel.Stats) Events {
	return Events{
		Syscalls:     st.Syscalls,
		MemReads:     st.MemReads,
		Rdtsc:        st.RdtscTrapped,
		Sched:        st.SchedRequests,
		Replays:      st.BlockedReplays,
		Spawns:       st.Spawns,
		ReadRetries:  st.ReadRetries,
		WriteRetries: st.WriteRetries,
		UrandomOpens: st.UrandomOpens,
	}
}

// BuildPackage runs one package through the full protocol: a native double
// build under the two reprotest variations, then (when the baseline built at
// all) a DetTrace double build varying only host accidents.
func (o *Options) BuildPackage(spec *debpkg.Spec) Out {
	return o.build(obs.NewLocal(), spec, 0)
}

// BuildAll evaluates every spec across the worker pool. The returned slice
// is ordered by spec index and bitwise-independent of Jobs; progress, when
// non-nil, is called serially with strictly increasing done counts.
func (o *Options) BuildAll(specs []*debpkg.Spec, progress func(done, total int)) []Out {
	outs := make([]Out, len(specs))
	var mu sync.Mutex
	done := 0
	land := func(i int, out Out) {
		mu.Lock()
		outs[i] = out
		done++
		if progress != nil {
			progress(done, len(specs))
		}
		mu.Unlock()
	}
	// The farm declines only when registration fails (a custom transport):
	// nothing has landed yet, so the local pool keeps BuildAll's contract.
	if !o.Distributed || !o.buildAllFarm(specs, land) {
		o.forEach(len(specs), func(l obs.Local, i int) {
			land(i, o.build(l, specs[i], i))
		})
	}
	return outs
}

// forEach runs fn(0..n-1) across the option's worker pool, handing each
// worker its own metrics stripe so the farm counters never contend. fn must
// write only to its own index's state.
func (o *Options) forEach(n int, fn func(l obs.Local, i int)) {
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		l := obs.NewLocal()
		for i := 0; i < n; i++ {
			fn(l, i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := obs.NewLocal()
			for i := range work {
				fn(l, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// pkgSeed derives the package's environment seed from the farm seed and the
// spec identity — a pure function, so results cannot depend on which worker
// or in which order a package is built.
func pkgSeed(seed uint64, spec *debpkg.Spec) uint64 {
	return derive.DigestBytes([]byte(spec.Name+"/"+spec.Version)) ^ (seed * 0x9E3779B97F4A7C15)
}

// build is the per-package protocol on the local (single-process) path.
func (o *Options) build(l obs.Local, spec *debpkg.Spec, idx int) Out {
	out, _ := o.buildProto(l, spec, idx, o.stores().snapshots, nil)
	return out
}

// buildProto is the per-package protocol with a pluggable snapshot store and
// first DetTrace build. The distributed farm boots the native builds from
// the coordinator's store and overrides d1 — the run its fault plane may
// kill and its recovery must resume from a coordinator-held seal — while
// the second DetTrace run stays on the local path: the farm changes WHERE a
// build runs, never WHAT it computes. A non-nil dt1 error aborts the package
// (the coordinator retries the whole job; every step before the crash is a
// pure function of (spec, seed), so the re-run recomputes identical bits).
func (o *Options) buildProto(l obs.Local, spec *debpkg.Spec, idx int, snapshots derive.Store, dt1 func(obs.Local, uint64, reprotest.Variation) (dtRun, error)) (Out, error) {
	seed := pkgSeed(o.Seed, spec)
	v1, v2 := reprotest.Pair(seed)
	out := Out{Spec: spec, Index: idx, Threaded: spec.Compiler == "javac"}

	// Baseline: build twice natively, each under its reprotest variation
	// (environment, build path, epoch, CPUs, host seed all vary). The §6.1
	// toolchain includes strip-nondeterminism, so the baseline verdict
	// compares the stripped .debs.
	b1 := o.buildNativeFrom(l, snapshots, spec, v1, BLDeadline)
	out.BLTime = b1.wall
	if secs := float64(b1.wall) / 1e9; secs > 0 {
		out.SyscallRate = float64(b1.syscalls) / secs
	}
	if v := b1.verdict(); v != "" {
		out.BL = v
		return out, nil
	}
	b2 := o.buildNativeFrom(l, snapshots, spec, v2, BLDeadline)
	if v := b2.verdict(); v != "" {
		out.BL = v
		return out, nil
	}
	if bytes.Equal(stripnd.Strip(b1.deb), stripnd.Strip(b2.deb)) {
		out.BL = Reproducible
	} else {
		out.BL = Irreproducible
	}

	// DetTrace: build twice in the container under the same perturbations —
	// but the container pins the build path, environment and PRNG seed as
	// inputs, so only the host accidents (entropy, epoch, core count)
	// actually vary. That is the property being measured.
	var d1 dtRun
	if dt1 == nil {
		d1 = o.buildDT(l, spec, seed, v1, nil)
	} else {
		var err error
		if d1, err = dt1(l, seed, v1); err != nil {
			return Out{}, err
		}
	}
	out.DTTime = d1.wall
	out.Events = d1.events
	if o.KeepTraces {
		out.RecEvents = d1.recEvents
		out.Trace = d1.trace
		out.Spans = d1.spans
	}
	if v, reason := d1.verdict(); v != "" {
		out.DT = v
		out.UnsupReason = reason
		return out, nil
	}
	d2 := o.buildDT(l, spec, seed, v2, nil)
	if v, reason := d2.verdict(); v != "" {
		out.DT = v
		out.UnsupReason = reason
		return out, nil
	}
	if out.BLTime > 0 {
		out.Slowdown = float64(out.DTTime) / float64(out.BLTime)
	}
	// DetTrace's outputs are already canonical: no strip pass.
	if bytes.Equal(d1.deb, d2.deb) {
		out.DT = Reproducible
	} else {
		out.DT = Irreproducible
	}
	return out, nil
}

// registry is the shared toolchain program registry: read-only after
// construction, safe for concurrent kernels.
var (
	regOnce sync.Once
	reg     *guest.Registry
)

func registry() *guest.Registry {
	regOnce.Do(func() {
		reg = guest.NewRegistry()
		workload.Register(reg)
	})
	return reg
}

// toolchainImage builds the pristine control chroot and unpacks the package
// source under dir, returning (image, pkgdir).
func toolchainImage(spec *debpkg.Spec, dir string) (*fs.Image, string) {
	img := baseimg.WithBinaries(workload.Names...)
	return img, spec.Materialize(img, dir)
}

func debPath(spec *debpkg.Spec) string {
	return "/build/out/" + spec.Name + "_" + spec.Version + "_amd64.deb"
}

// nativeRun is one baseline build's observables.
type nativeRun struct {
	deb      []byte
	log      []byte
	prog     []byte // the built binary, for post-build selftests (§7.2)
	exit     int
	wall     int64
	syscalls int64 // weighted
	timeout  bool
	err      error
}

// verdict maps a failed run to its Table 1 cell ("" means the build
// completed and produced a .deb).
func (r nativeRun) verdict() Verdict {
	switch {
	case r.timeout:
		return Timeout
	case r.err != nil || r.exit != 0 || r.deb == nil:
		return Fail
	}
	return ""
}

// buildNative runs dpkg-buildpackage on the simulated host under one
// reprotest variation, with the kernel's baseline (nondeterministic) policy,
// booting from the farm-wide local snapshot store.
func (o *Options) buildNative(l obs.Local, spec *debpkg.Spec, v reprotest.Variation, deadline int64) nativeRun {
	return o.buildNativeFrom(l, o.stores().snapshots, spec, v, deadline)
}

// buildNativeFrom is buildNative with the prepared snapshot served from an
// explicit store.
func (o *Options) buildNativeFrom(l obs.Local, snapshots derive.Store, spec *debpkg.Spec, v reprotest.Variation, deadline int64) nativeRun {
	k, pkgdir := o.bootNative(l, snapshots, spec, v, deadline, nil)
	proc := startBuild(k, pkgdir, v.Env)
	runErr := k.Run()
	r := nativeRun{exit: proc.ExitCode(), wall: k.Now(), syscalls: k.Stats.Syscalls}
	if runErr != nil {
		if errors.Is(runErr, kernel.ErrTimeout) {
			r.timeout = true
		} else {
			r.err = runErr
		}
		return r
	}
	r.deb = inodeData(k, proc, debPath(spec))
	r.log = inodeData(k, proc, pkgdir+"/build-step.log")
	r.prog = inodeData(k, proc, pkgdir+"/build/prog")
	return r
}

// bootNative boots the package's toolchain image on the simulated host under
// one reprotest variation and returns the kernel with the package's source
// directory. A nil policy is the kernel's baseline. Unless the template
// ablation is on (or the store carries no bodies), the kernel boots from the
// store's prepared snapshot of the image instead of repopulating it.
func (o *Options) bootNative(l obs.Local, snapshots derive.Store, spec *debpkg.Spec, v reprotest.Variation, deadline int64, policy kernel.Policy) (*kernel.Kernel, string) {
	sc := o.sc()
	img, pkgdir, imgHash := o.pkgImage(l, spec, v.BuildRoot)
	var snap *kernel.Snapshot
	if !o.DisableTemplates {
		snap = o.snapshot(l, snapshots, imgHash, img)
	}
	b := kernel.BootConfig{
		Seed:     v.HostSeed,
		Epoch:    v.Epoch,
		NumCPU:   v.NumCPU,
		Deadline: deadline,
		Policy:   policy,
	}
	if snap == nil {
		b.Resolver = registry().Resolver() // a snapshot carries its own
		sc.coldBoots.Add(l, 1)
		return kernel.ColdBoot(machine.CloudLabC220G5(), kernel.CostModel{}, img, b), pkgdir
	}
	sc.forkBoots.Add(l, 1)
	return snap.Boot(b), pkgdir
}

// startBuild starts dpkg-buildpackage as the kernel's init process, in the
// package's source directory.
func startBuild(k *kernel.Kernel, pkgdir string, env []string) *kernel.Proc {
	argv := []string{"dpkg-buildpackage", "-b"}
	init := func(t *kernel.Thread) int {
		p := &guest.Proc{T: t}
		if err := p.Exec("/bin/dpkg-buildpackage", argv, env); err != abi.OK {
			return 127
		}
		return 127 // unreachable
	}
	proc := k.Start(init, argv, env)
	if n, err := k.ResolveInode(proc, pkgdir, true); err == abi.OK && n.IsDir() {
		proc.Cwd, proc.CwdPath = n, pkgdir
	}
	return proc
}

func inodeData(k *kernel.Kernel, p *kernel.Proc, path string) []byte {
	n, err := k.ResolveInode(p, path, true)
	if err != abi.OK || n == nil || n.IsDir() {
		return nil
	}
	return append([]byte(nil), n.Data...)
}

// dtRun is one DetTrace build's observables.
type dtRun struct {
	deb       []byte
	log       []byte
	prog      []byte // the built binary, for post-build selftests (§7.2)
	exit      int
	wall      int64
	actions   int64 // deterministic kernel action count, for fault targeting
	timeout   bool
	unsup     string
	err       error
	events    Events
	recEvents int64       // flight-recorder events produced (incl. dropped)
	trace     []obs.Event // retained flight-recorder ring
	spans     []obs.Span  // lifecycle spans (prepare/fork/boot/run/flush)

	sess *ttd.Session // the run's debug session, when recordSession took it
}

// same reports whether two builds are one build as far as the determinism
// contract goes: exit status, .deb and build log bitwise, and the virtual
// clock — unless the mechanism that separates them may move it.
func (r dtRun) same(o dtRun, m moves) bool {
	return r.exit == o.exit && (m == movesVirtualTime || r.wall == o.wall) &&
		bytes.Equal(r.deb, o.deb) && bytes.Equal(r.log, o.log)
}

func (r dtRun) verdict() (Verdict, string) {
	switch {
	case r.unsup != "":
		return Unsupported, r.unsup
	case r.timeout:
		return Timeout, ""
	case r.err != nil || r.exit != 0 || r.deb == nil:
		return Fail, ""
	}
	return "", ""
}

// containerEnv is the canonical build environment: inside DetTrace the
// environment is a container input, fixed regardless of the invoking shell.
var containerEnv = []string{
	"PATH=/bin",
	"USER=root",
	"HOME=/root",
	"DEB_BUILD_OPTIONS=",
	"LC_ALL=C",
	"TZ=UTC",
}

// buildDT runs the package inside the DetTrace container. The variation
// contributes only host accidents — the build path, environment and PRNG
// seed are container inputs and stay fixed. mod, when non-nil, adjusts the
// container config (machine profile, ablations) before the run.
//
// Unless templates are disabled (farm-wide via Options.DisableTemplates or
// per-config via DisableTemplateReuse), the container is forked from a
// cached core.Template keyed on (image hash, config hash) — mod runs first,
// so an ablated config can never be served a mismatched template.
func (o *Options) buildDT(l obs.Local, spec *debpkg.Spec, seed uint64, v reprotest.Variation, mod func(*core.Config)) dtRun {
	img, pkgdir, imgHash := o.pkgImage(l, spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v)
	if mod != nil {
		mod(&cfg)
	}
	if o.Checkpoints {
		var plan reprotest.FaultPlan
		if o.InjectFaults {
			plan = reprotest.PlanFor(seed ^ v.HostSeed)
		}
		return o.buildDTFault(l, spec, plan, cfg, img, imgHash, pkgdir)
	}
	res := o.runContainer(l, cfg, img, imgHash, containerEnv)
	return dtRunFrom(res, spec, pkgdir)
}

// dtConfig is the canonical DetTrace container configuration for one build.
func (o *Options) dtConfig(img *fs.Image, pkgdir string, seed uint64, v reprotest.Variation) core.Config {
	return core.Config{
		Image:                img,
		Profile:              machine.CloudLabC220G5(),
		HostSeed:             v.HostSeed,
		Epoch:                v.Epoch,
		NumCPU:               v.NumCPU,
		PRNGSeed:             seed ^ 0xD7,
		WorkingDir:           pkgdir,
		Deadline:             DTDeadline,
		ExperimentalSockets:  o.Experimental,
		ExperimentalSignals:  o.Experimental,
		DisableSyscallBuf:    o.NoSyscallBuf,
		DisableObservability: o.NoObservability,
		DisableWorkspaces:    o.NoWorkspaces,
		DisableIncremental:   !o.Incremental,
		DisableDeltaSeals:    o.noDeltaSeals,
	}
}

// runContainer runs the package build in a container for cfg, forking its
// template from the farm-wide local store.
func (o *Options) runContainer(l obs.Local, cfg core.Config, img *fs.Image, imgHash uint64, env []string) *core.Result {
	return o.runContainerFrom(l, o.stores().templates, cfg, img, imgHash, env)
}

// runContainerFrom builds the container for cfg — forked from the template
// the store holds (or leases to this caller to prepare) unless an ablation or a fault knob
// forces the cold path — runs the package build in it, and books the setup
// accounting. Crash-carrying configs always cold-boot: their config hash
// differs by design, and a run doomed to die mid-flight must not hold a
// prepare lease — that keeps the lease protocol deadlock-free (holders always
// complete their put) and the store unchurned. Forked and cold boots are
// pinned bitwise-identical, so the detour is invisible.
func (o *Options) runContainerFrom(l obs.Local, templates derive.Store, cfg core.Config, img *fs.Image, imgHash uint64, env []string) *core.Result {
	sc := o.sc()
	var tpl *core.Template
	if !o.DisableTemplates && !cfg.DisableTemplateReuse && cfg.Image == img && cfg.FaultInjectCrash == 0 {
		// cfg carries its final behaviour-relevant fields by now (mod applied),
		// and the key's config hash ignores the per-run host fields, so one
		// template serves every perturbation of a build and no other.
		key := derive.KeyFor(imgHash, core.ConfigHash(cfg))
		tpl, _ = o.prepared(l, templates, key, func() any { return core.NewTemplate(cfg) }).(*core.Template)
	}
	var c *core.Container
	if tpl == nil {
		c = core.New(cfg)
	} else {
		c = tpl.NewContainer(core.HostRun{
			Seed: cfg.HostSeed, Epoch: cfg.Epoch, NumCPU: cfg.NumCPU,
			CheckpointSink:         cfg.CheckpointSink,
			FaultCorruptCheckpoint: cfg.FaultCorruptCheckpoint,
		})
	}
	res := c.Run(registry(), "/bin/dpkg-buildpackage",
		[]string{"dpkg-buildpackage", "-b"}, env)
	if res.Forked {
		sc.forkBoots.Add(l, 1)
		sc.recEventsFork.Add(l, res.Trace.Total())
	} else {
		sc.coldBoots.Add(l, 1)
		sc.recEventsCold.Add(l, res.Trace.Total())
	}
	// Roll the run's own registry (kernel syscall table, tracer stops) into
	// the farm-wide one so `benchtab -trace` can dump a single farm view.
	o.Obs().Absorb(res.Obs)
	return res
}

// dtRunFrom condenses a container result into the build's observables.
func dtRunFrom(res *core.Result, spec *debpkg.Spec, pkgdir string) dtRun {
	r := dtRun{exit: res.ExitCode, wall: res.WallTime, actions: res.Actions,
		events:    eventsFrom(res.Stats),
		recEvents: res.Trace.Total(), trace: res.Events, spans: res.Spans}
	r.events.Stops = res.Tracer.Stops
	r.events.Buffered = res.Tracer.BufferedCalls
	r.events.Flushes = res.Tracer.Flushes
	if res.Obs != nil {
		r.events.WsForks = res.Obs.Counter("workspace_forks").Value()
		r.events.WsMerges = res.Obs.Counter("workspace_merges").Value()
		r.events.WsConflicts = res.Obs.Counter("workspace_conflicts").Value()
	}
	if op, ok := res.Unsupported(); ok {
		r.unsup = op
		return r
	}
	if res.TimedOut() {
		r.timeout = true
		return r
	}
	if res.Err != nil {
		r.err = res.Err
		return r
	}
	r.deb = imageData(res.FS, debPath(spec))
	r.log = imageData(res.FS, pkgdir+"/build-step.log")
	r.prog = imageData(res.FS, pkgdir+"/build/prog")
	return r
}

func imageData(im *fs.Image, path string) []byte {
	if im == nil {
		return nil
	}
	e, ok := im.Entries[path]
	if !ok || e.Mode&abi.ModeTypeMask != abi.ModeRegular {
		return nil
	}
	return append([]byte(nil), e.Data...)
}
