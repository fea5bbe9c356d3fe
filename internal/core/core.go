// Package core implements DetTrace: the reproducible container abstraction
// of the paper. A Container attaches to the simulated kernel as its tracing
// policy and enforces, per the §5 taxonomy, that every computation inside is
// a pure function of the container's inputs — the initial filesystem image,
// the entry command, the configured environment, and the PRNG seed (Fig. 1).
//
// Host accidents — the entropy seed, the wall epoch, core counts, the
// machine profile's cpuid/directory-size quirks — must not be observable.
// The determinism meta-test in this package's tests runs the same container
// on wildly different hosts and requires bitwise-identical results.
package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/abi"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/tracer"
)

// DefaultLogicalEpoch is the fixed wall-clock second DetTrace's logical time
// starts from: Sun Aug  8 22:00:00 UTC 1993, the date the artifact's
// `dettrace date` demo prints.
const DefaultLogicalEpoch = 744847200

// Config describes one reproducible container. Fields marked [input] are
// part of the container's reproducibility contract (changing them may change
// output); fields marked [host] describe the physical run and must NOT
// affect output — that is the property under test.
type Config struct {
	Image *fs.Image // [input] initial filesystem state

	Profile  *machine.Profile // [host] machine the container runs on
	HostSeed uint64           // [host] physical-run entropy
	Epoch    int64            // [host] wall-clock seconds at boot
	NumCPU   int              // [host] core count override (0 = profile's)

	PRNGSeed uint64 // [input] seed for container-visible randomness (§5.2)

	// Deadline bounds virtual time; 0 means unlimited. A timed-out build is
	// classified Timeout in the evaluation. [input]
	Deadline int64

	// Off switches rows of the mechanism table (mechanism.go) off, each with
	// its declared contract; the empty set is the full DetTrace configuration.
	Off Mechanisms
	// DisableIncremental is an older spelling of Off.Has(Incremental), which
	// normalizeConfig folds into Off.
	DisableIncremental bool

	// RingEvents overrides the flight-recorder ring capacity (0 keeps
	// obs.DefaultRingEvents). Capacity only bounds retention, never
	// behaviour, so it stays out of ConfigHash.
	RingEvents int

	// FaultInjectEntropy, when > 0, deliberately perturbs the N-th entropy
	// draw (1-based) served to the container — the seeded-nondeterminism
	// hook the diagnoser tests use to prove a divergence is localized to
	// the exact first divergent event. This DOES change guest-visible
	// bytes, so unlike the knobs above it participates in ConfigHash.
	// [input, test-only]
	FaultInjectEntropy int

	// FaultInjectCrash, when > 0, kills the run with
	// kernel.ErrInjectedCrash once the kernel's processed-action count
	// reaches N — the deterministic stand-in for a machine crash,
	// scheduled on logical history so the same N always dies at the same
	// traced stop. It changes how far the run gets (though never what any
	// prefix contains), so it participates in ConfigHash; recovery clears
	// it, which is why checkpoint validation hashes it out (recoveryHash).
	// [input, test-only]
	FaultInjectCrash int64

	// FaultCorruptCheckpoint, when > 0, corrupts the N-th checkpoint
	// (1-based) as it is sealed: its validation digest is flipped so
	// Resume rejects it with ErrCheckpointCorrupt and recovery must fall
	// back to an older seal or a cold-boot replay. Mechanism-level — the
	// running guest never observes its checkpoints — so excluded from
	// ConfigHash like the observability knobs.
	FaultCorruptCheckpoint int

	// CheckpointSink, when non-nil, enables crash-consistent checkpoints:
	// at every quiescent traced stop (see kernel.BootConfig.Checkpointer for
	// the eligibility rules) the container seals its complete state and
	// hands the Checkpoint to the sink; latest-wins callers keep only the
	// last one. Sealing is read-only and never perturbs the run, so this
	// is a mechanism knob excluded from ConfigHash: output with a sink
	// attached is bitwise identical to output without.
	CheckpointSink func(*Checkpoint)

	// WorkingDir is the container working directory (the --working-dir
	// bind-mount target); empty selects /build when the image has it.
	// [input]
	WorkingDir string

	// UpdateVirtualMtimes makes writes advance a file's virtual mtime —
	// the "more realistic-looking virtual mtimes" extension §5.5 mentions.
	// Off by default, matching the paper's prototype. [input]
	UpdateVirtualMtimes bool

	// FastVdso enables the §5.3 planned optimization: instead of
	// downgrading vDSO timing calls to intercepted system calls, the
	// patched vDSO answers them with logical time directly — no stop, no
	// tracer serialization, same reproducible values. [input]
	FastVdso bool

	// ExperimentalSockets permits AF_UNIX sockets *within* the container
	// (§5.9's future work): the reproducible scheduler already orders
	// their dataflow deterministically, so container-internal IPC is safe
	// to allow. Network reachability remains impossible — there is nothing
	// outside the container to connect to. [input]
	ExperimentalSockets bool

	// ExperimentalSignals permits cross-process signals inside the
	// container (§5.4's "in principle, fully reproducible via a logical
	// clock"): delivery happens at the receiver's next scheduler-ordered
	// stop, which is a pure function of logical history. [input]
	ExperimentalSignals bool

	// Downloads declares the container's permitted external fetches (§3:
	// "downloading files with known checksums"): URL -> expected content.
	// The fetch pseudo-syscall verifies the SHA-256 before any byte is
	// visible; an undeclared or corrupt fetch aborts reproducibly. [input]
	Downloads map[string]Download

	// LogRealRandom implements the §5.2 escape hatch for applications that
	// need true randomness: getrandom and /dev/[u]random serve real host
	// entropy, and every byte is logged into Result.RandomLog so the run
	// can be reproduced later by replaying the log. [input when replayed]
	LogRealRandom bool
	// RandomReplay, when non-nil, replays a previously captured RandomLog
	// instead of drawing fresh entropy. Runs that exhaust the log get more
	// LFSR bytes (and are flagged in the result). [input]
	RandomReplay []byte

	// HaltAtLTime / HaltAtAction, when > 0, stop the run at the first
	// traced-stop boundary where the logical clock (resp. the processed-
	// action count) has reached the given value; the Result reports
	// Halted with the state at that instant. These are the time-travel
	// debugger's seek primitives (internal/ttd). Debug knobs like Debug
	// itself — a halted replay observes a strict prefix of the run, its
	// result never enters any cache — so both stay out of ConfigHash;
	// that is also what lets a seek resume pass checkpoint validation
	// (recoveryHash) while halting early.
	HaltAtLTime  int64
	HaltAtAction int64

	// Debug receives a kernel trace when non-nil (the --debug flag).
	Debug func(format string, args ...any)
}

// Download is one declared external file: content pinned by checksum.
type Download struct {
	Data   []byte
	SHA256 string // hex digest the content must match
}

// UnsupportedError is the reproducible container-level error DetTrace raises
// for operations outside its supported set (§5.9).
type UnsupportedError struct {
	Op string // "socket", "cross-process signal", "busy-wait", or a syscall name
}

func (e *UnsupportedError) Error() string {
	return "dettrace: unsupported operation: " + e.Op
}

// Result captures everything observable about one container run.
type Result struct {
	ExitCode int
	Stdout   string
	Stderr   string
	// FS is the final filesystem state. It is read-only, Entries map and
	// bytes alike: a forked run's image lends the frozen template's file
	// bodies instead of copying them (fs.FS.SnapshotImage), and a run that
	// changed nothing an image shows returns its snapshot's own image, one
	// shared by every such result. Edit a Clone.
	FS  *fs.Image
	Err error // nil, *UnsupportedError (wrapped), timeout, or deadlock

	WallTime int64 // virtual ns the run took on this host
	// Actions is the kernel's processed-action count at the end of the
	// run — the logical index crash faults and checkpoints schedule on.
	// Deterministic, so crash sweeps can derive in-range injection points
	// from a reference run's value.
	Actions int64
	Stats   kernel.Stats
	// Tracer repeats Stats' tracer counts (Stats.Counters) under the name
	// benchmark harnesses read them by.
	Tracer tracer.Counters

	// RandomLog holds every byte of true randomness served to the
	// container when Config.LogRealRandom was set; feed it back through
	// Config.RandomReplay to reproduce the run (§5.2).
	RandomLog []byte
	// ReplayExhausted reports that a RandomReplay ran out of bytes.
	ReplayExhausted bool

	// SetupNs is real (not virtual) time spent constructing the kernel for
	// this run: preparing a private snapshot and forking it, or only the
	// fork when Forked — the run booted from a shared Template's snapshot.
	// Benchmarking metadata only: never part of the reproducibility-
	// observable output.
	SetupNs int64
	Forked  bool
	// Resumed reports the run was reconstructed from a Checkpoint rather
	// than booted from the start. Like Forked, benchmarking metadata: a
	// resumed result is bitwise identical to the uninterrupted one.
	Resumed bool

	// Halted reports the run stopped at a HaltAtLTime/HaltAtAction debug
	// halt point rather than finishing; LTime is the final logical clock
	// and EntropyDraws the entropy-log cursor (how many numbered draws the
	// container had served) at that instant — the time-travel debugger's
	// inspection hooks.
	Halted       bool
	LTime        int64
	EntropyDraws int

	// Observability metadata, like SetupNs never part of the
	// reproducibility-observable output. Obs is the run's counts published
	// as metrics once it ended (absorb it into a farm registry for
	// roll-ups); Trace the flight
	// recorder (nil with the observability row off); Events its retained ring
	// and Spans the lifecycle phases (prepare → boot/fork → run → flush).
	Obs    *obs.Registry
	Trace  *obs.Recorder
	Events []obs.Event
	Spans  []obs.Span
}

// Unsupported reports whether the run aborted on an unsupported operation,
// and which one.
func (r *Result) Unsupported() (string, bool) {
	var ue *UnsupportedError
	if errors.As(r.Err, &ue) {
		return ue.Op, true
	}
	return "", false
}

// TimedOut reports whether the run exceeded its virtual deadline.
func (r *Result) TimedOut() bool { return errors.Is(r.Err, kernel.ErrTimeout) }

// detState is the container's sealed determinization state: a field declared
// here is carried by every Checkpoint (sealCheckpoint clones the struct,
// resume assigns it back); everything declared on Container itself is
// rebuilt by newContainer, keyed by live kernel objects, or empty at a
// quiescent stop. Plain data only, so a seal never aliases a live container.
type detState struct {
	// Virtual inode and mtime maps (§5.5): real inode -> virtual value,
	// assigned lazily in first-touch order.
	inoMap    map[uint64]uint64
	nextIno   uint64
	mtimeMap  map[uint64]int64
	nextMtime int64

	// PID namespace (§5.1): raw host pid -> virtual pid from 1.
	vpid     map[int]int
	rawPid   map[int]int // inverse
	nextVPID int

	// §5.2 true-randomness escape hatch state.
	randomLog       []byte
	replayCursor    int
	replayExhausted bool

	// entropyDraws numbers fillRandom calls for KindEntropy events and the
	// FaultInjectEntropy hook.
	entropyDraws int

	// checkpoints numbers the seals handed to CheckpointSink (1-based
	// ordinal); a resumed container continues the sealed run's numbering.
	checkpoints int
}

// clone deep-copies the state: every slice and map gets its own backing.
func (s detState) clone() detState {
	s.inoMap = maps.Clone(s.inoMap)
	s.mtimeMap = maps.Clone(s.mtimeMap)
	s.vpid = maps.Clone(s.vpid)
	s.rawPid = maps.Clone(s.rawPid)
	s.randomLog = slices.Clone(s.randomLog)
	return s
}

// Container is the DetTrace tracer: it implements kernel.Policy and owns all
// determinization state.
type Container struct {
	detState

	cfg   Config
	k     *kernel.Kernel
	sess  *tracer.Session
	sched *sched.Scheduler
	prng  *prng.LFSR

	// verdicts is the shared verdict table of this config's interception
	// mode (syscalls.go).
	verdicts *[abi.SysnoSlots]action

	// Per-process rdtsc counts for the §5.8 linear function.
	rdtscCount map[*kernel.Proc]int64

	// In-flight read/write retry state (Fig. 4), per thread.
	rw map[*kernel.Thread]*rwRetry

	// pendingOpen remembers the pre-open existence check (§5.5), per thread.
	pendingOpen map[*kernel.Thread]bool

	interceptCpuid bool

	// snap is the shared snapshot of the Template this container was forked
	// from; nil for a core.New container, whose Run prepares a private one.
	snap *kernel.Snapshot

	// Observability: the flight recorder (nil with the observability row
	// off; every Record on a nil recorder is a no-op); spans collects
	// lifecycle phases. What the run counts lives in the attached kernel's
	// Stats; publish turns it into Result.Obs.
	rec   *obs.Recorder
	spans []obs.Span

	// Workspace-consistency state (ISSUE 7): ws maps each thread to its
	// outstanding private workspace, forked lazily at the first concurrent
	// compute burst of a phase and merged back at the thread's next sync
	// point.
	ws map[*kernel.Thread]*fs.Workspace
}

// fillRandom services one randomness request per the container's policy:
// seeded LFSR by default; logged host entropy or a replayed log when the
// §5.2 escape hatch is enabled. Every draw is numbered, optionally
// fault-perturbed (FaultInjectEntropy), and recorded as a KindEntropy event
// whose digest reflects the bytes the guest actually saw.
func (c *Container) fillRandom(p []byte) {
	switch {
	case c.cfg.RandomReplay != nil:
		n := copy(p, c.cfg.RandomReplay[c.replayCursor:])
		c.replayCursor += n
		if n < len(p) {
			c.replayExhausted = true
			c.prng.Fill(p[n:])
		}
	case c.cfg.LogRealRandom:
		c.k.HW.Entropy.Fill(p)
		c.randomLog = append(c.randomLog, p...)
	default:
		c.prng.Fill(p)
	}
	c.entropyDraws++
	if c.cfg.FaultInjectEntropy > 0 && c.entropyDraws == c.cfg.FaultInjectEntropy && len(p) > 0 {
		p[0] ^= 0x80
	}
	c.rec.Record(c.k.LNow(), obs.KindEntropy, 0, 0,
		uint64(c.entropyDraws)<<32|uint64(len(p)&0xffffffff),
		int64(obs.DigestBytes(p)))
}

type rwRetry struct {
	orig  []byte
	total int64
}

// normalizeConfig fills the defaulted Config fields and folds the incremental
// alias into Off, in place; New and NewTemplate must agree so ConfigHash is stable.
func normalizeConfig(cfg *Config) {
	if cfg.Profile == nil {
		cfg.Profile = machine.CloudLabC220G5()
	}
	if cfg.DisableIncremental {
		cfg.Off |= Off(Incremental)
		cfg.DisableIncremental = false
	}
}

// New assembles a container ready to Run, which prepares a private snapshot
// of cfg.Image and boots it (a Template shares one snapshot instead).
func New(cfg Config) *Container {
	normalizeConfig(&cfg)
	return newContainer(cfg)
}

// newContainer wires the per-run container state. cfg must already be
// normalized.
func newContainer(cfg Config) *Container {
	mode := modeBuffered
	switch {
	case cfg.Off.Has(Seccomp):
		mode = modeTraceAll
	case cfg.Off.Has(SyscallBuf):
		mode = modeUnbuffered
	}
	c := &Container{
		detState: detState{
			inoMap:   make(map[uint64]uint64),
			nextIno:  2, // inode 1 is conventionally reserved
			mtimeMap: make(map[uint64]int64),
			vpid:     make(map[int]int),
			rawPid:   make(map[int]int),
			nextVPID: 1,
		},
		cfg:         cfg,
		sched:       sched.New(),
		prng:        prng.NewLFSR(cfg.PRNGSeed),
		verdicts:    &verdicts[mode],
		rdtscCount:  make(map[*kernel.Proc]int64),
		rw:          make(map[*kernel.Thread]*rwRetry),
		pendingOpen: make(map[*kernel.Thread]bool),
		ws:          make(map[*kernel.Thread]*fs.Workspace),
	}
	c.sched.Workspace = !cfg.Off.Has(Workspaces)
	if !cfg.Off.Has(Observability) {
		c.rec = obs.NewRecorder(cfg.RingEvents)
	}
	c.sched.Rec = c.rec
	// The session counts into the kernel it is attached to (attach points it).
	c.sess = tracer.NewSession(nil, cfg.Profile.SeccompSingleStop && !cfg.Off.Has(Seccomp))
	c.interceptCpuid = !cfg.Off.Has(CpuidTrap) && cfg.Profile.SupportsCpuidInterception()
	return c
}

// bootConfig is the per-run half every kernel this container attaches to is
// built from, whichever source the machine state comes from: a snapshot
// fork or a checkpoint (which ignores Seed, Epoch and NumCPU — the
// seal carries the original boot's).
func (c *Container) bootConfig(reg *guest.Registry) kernel.BootConfig {
	b := kernel.BootConfig{
		Seed:          c.cfg.HostSeed,
		Epoch:         c.cfg.Epoch,
		Policy:        c,
		Resolver:      reg.Resolver(),
		Deadline:      c.cfg.Deadline,
		NumCPU:        c.cfg.NumCPU,
		Rec:           c.rec,
		CrashAtAction: c.cfg.FaultInjectCrash,
		DeltaSeals:    !c.cfg.Off.Has(DeltaSeals),
		HaltAtAction:  c.cfg.HaltAtAction,
		HaltAtLTime:   c.cfg.HaltAtLTime,
	}
	if c.cfg.CheckpointSink != nil {
		b.Checkpointer = c.sealCheckpoint
	}
	return b
}

// attach binds the container to the kernel it was just handed, recording the
// setup phase as a span. Every kernel's filesystem shares data with a frozen
// snapshot base (a boot forks one, and COW flags survive sealing), so the
// break hook fires at the writes the guest makes, however the container was
// set up: a resumed run fires the same break events the original would.
func (c *Container) attach(k *kernel.Kernel, span string, setupNs int64) {
	c.k = k
	c.sess.Counters = &k.Stats.Counters
	if c.rec != nil {
		// COW data breaks are mechanism-level events (the diagnoser skips
		// their kind), though every run records them alike.
		k.FS.OnCOWBreak = func(bytes int64) {
			c.rec.Record(k.LNow(), obs.KindCOWBreak, 0, 0, uint64(bytes), 0)
		}
	}
	c.spans = append(c.spans, obs.Span{Name: span, RealNs: setupNs})
	if c.cfg.Debug != nil {
		k.SetDebug(c.cfg.Debug)
	}
	c.registerContainerDevices(k)
}

// Run executes path inside the container with the given argv/env, resolving
// programs against reg. It blocks until the container finishes.
func (c *Container) Run(reg *guest.Registry, path string, argv, env []string) *Result {
	setupStart := time.Now()
	snap, span := c.snap, "fork"
	if snap == nil {
		snap, span = kernel.Prepare(kernel.Config{Profile: c.cfg.Profile, Image: c.cfg.Image}), "boot"
	}
	k := snap.Boot(c.bootConfig(reg))
	setupNs := time.Since(setupStart).Nanoseconds()
	c.attach(k, span, setupNs)

	// Init execs the requested command so the OnExec hook (vDSO, traps,
	// scratch page) fires exactly as it would for any process.
	init := func(t *kernel.Thread) int {
		p := &guest.Proc{T: t}
		if err := p.Exec(path, argv, env); err != abi.OK {
			p.Eprintf("dettrace: exec %s: %s\n", path, err)
			return 127
		}
		return 127 // unreachable
	}
	proc := k.Start(init, argv, env)
	// Namespace root: the invoking user maps to root; cwd is the bind-
	// mounted working directory when the image provides /build.
	proc.UID, proc.GID = 0, 0
	c.vpid[proc.PID] = c.nextVPID
	c.rawPid[c.nextVPID] = proc.PID
	c.nextVPID++
	c.armProcess(proc)
	wd := c.cfg.WorkingDir
	if wd == "" {
		wd = "/build"
	}
	if n, err := k.ResolveInode(proc, wd, true); err == abi.OK && n.IsDir() {
		proc.Cwd = n
		proc.CwdPath = wd
	}

	res := c.finish(proc, setupNs)
	res.Forked = c.snap != nil
	return res
}

// finish runs the attached kernel to completion and assembles the Result,
// timing both as spans; callers add which path built the kernel (Forked,
// Resumed).
func (c *Container) finish(proc *kernel.Proc, setupNs int64) *Result {
	runStart := time.Now()
	runErr := c.k.Run()
	c.spans = append(c.spans, obs.Span{
		Name: "run", RealNs: time.Since(runStart).Nanoseconds(), LEnd: c.k.LNow(),
	})
	flushStart := time.Now()
	res := c.assembleResult(proc, runErr)
	res.SetupNs = setupNs
	c.spans = append(c.spans, obs.Span{
		Name: "flush", RealNs: time.Since(flushStart).Nanoseconds(),
	})
	res.Spans = c.spans
	return res
}

// registerContainerDevices mounts the determinized device set into the
// kernel; shared by the boot path (Run) and the checkpoint path (Resume),
// which must agree exactly for resumed reads to be bitwise faithful.
func (c *Container) registerContainerDevices(k *kernel.Kernel) {
	// The container's /dev/[u]random are fed from the seeded LFSR (§5.2),
	// or from logged/replayed true randomness when configured.
	k.RegisterDevice("urandom", func() fs.Device { return kernel.FillFunc(c.fillRandom) })
	k.RegisterDevice("random", func() fs.Device { return kernel.FillFunc(c.fillRandom) })

	// /proc reports the same canonical uniprocessor the cpuid mask and
	// sysinfo do (§5.8): no host identity reaches readers of these files.
	k.RegisterDevice("proc:cpuinfo", kernel.TextFile(func() string {
		return "processor\t: 0\nmodel name\t: DetTrace Virtual CPU @ 2.00GHz\nflags\t\t: fpu sse2\n\n"
	}))
	k.RegisterDevice("proc:uptime", kernel.TextFile(func() string {
		// Logical uptime: one "second" per time query, like §5.3's clock.
		return fmt.Sprintf("%d.00 %d.00\n", c.timeQueries(), c.timeQueries())
	}))
	k.RegisterDevice("proc:meminfo", kernel.TextFile(func() string {
		return "MemTotal:        4194304 kB\nMemFree:         2097152 kB\n"
	}))
	k.RegisterDevice("proc:version", kernel.TextFile(func() string {
		return "Linux version 4.0.0-dettrace (dettrace@dettrace) #1 SMP\n"
	}))
}

// assembleResult builds the reproducibility-observable Result from the
// finished kernel; finish layers the benchmarking metadata on top.
func (c *Container) assembleResult(proc *kernel.Proc, runErr error) *Result {
	k := c.k
	res := &Result{
		ExitCode: proc.ExitCode(),
		Stdout:   k.Console.Stdout(),
		Stderr:   k.Console.Stderr(),
		FS:       k.FS.SnapshotImage(k.FS.Root),
		Err:      runErr,
		WallTime: k.Now(),
		Actions:  k.Actions(),
		Stats:    k.Stats,
		Tracer:   k.Stats.Counters,
		Obs:      publish(k),
	}
	res.RandomLog = c.randomLog
	res.ReplayExhausted = c.replayExhausted
	res.Halted = errors.Is(runErr, kernel.ErrHalted)
	if res.Halted {
		res.Err = nil // a reached halt point is the requested result
	}
	res.LTime = k.LNow()
	res.EntropyDraws = c.entropyDraws
	var ab *kernel.AbortError
	if errors.As(runErr, &ab) {
		res.Err = fmt.Errorf("dettrace: %w", ab.Err)
	}
	res.Trace = c.rec
	res.Events = c.rec.Events()
	return res
}

// publish builds the metrics view of a finished run: the one list of the
// per-run metric names. Every name is registered, zeros included, so two
// runs' dumps always list the same names; the kernel's per-syscall table is
// handed over, not copied, since the kernel never counts again.
func publish(k *kernel.Kernel) *obs.Registry {
	r := obs.NewRegistry()
	st := &k.Stats
	for _, m := range [...]struct {
		name string
		v    int64
	}{
		{"tracer_mem_reads", st.MemReads},
		{"tracer_mem_writes", st.MemWrites},
		{"tracer_proc_reads", st.ProcReads},
		{"tracer_stops", st.Stops},
		{"tracer_buffered_calls", st.BufferedCalls},
		{"tracer_flushes", st.Flushes},
		{"workspace_forks", st.WsForks},
		{"workspace_merges", st.WsMerges},
		{"workspace_conflicts", st.WsConflicts},
	} {
		r.Publish(m.name, m.v)
	}
	r.AdoptVec("kernel_syscalls", k.PerSyscall())
	return r
}

// armProcess configures instruction trapping and the replaced vDSO for a
// process, as DetTrace does after attach and after every execve.
func (c *Container) armProcess(p *kernel.Proc) {
	p.Trap.TSCTrap = true
	p.Trap.CpuidTrap = c.interceptCpuid
	if !c.cfg.Off.Has(Vdso) {
		p.VdsoReplaced = true
		p.VdsoLogical = c.cfg.FastVdso
		c.sess.WriteMem(p.Weight, 1) // patching the vDSO page
	}
	p.ScratchPage = true
	c.sess.WriteMem(p.Weight, 1) // mapping the scratch page
	p.DisableASLR()
}

// timeQueries sums logical-clock advancement across the container, the
// deterministic stand-in for uptime.
func (c *Container) timeQueries() int64 { return c.nextMtime + int64(c.nextVPID) }

// virtIno returns (assigning lazily) the virtual inode for a real one.
func (c *Container) virtIno(real uint64) uint64 {
	if v, ok := c.inoMap[real]; ok {
		return v
	}
	v := c.nextIno
	c.nextIno++
	c.inoMap[real] = v
	return v
}

// newFileInode (re)assigns a fresh virtual inode and the next virtual mtime
// for a file DetTrace observed being created — even if the OS recycled a
// real inode number (§5.5).
func (c *Container) newFileInode(real uint64) {
	v := c.nextIno
	c.nextIno++
	c.inoMap[real] = v
	c.nextMtime++
	c.mtimeMap[real] = c.nextMtime
}

// virtMtime returns the virtual mtime (seconds) for a real inode; inodes
// from the initial image report 0.
func (c *Container) virtMtime(real uint64) int64 { return c.mtimeMap[real] }

// virtDirSize is the machine-independent directory size function added for
// §7.3 portability: a deterministic function of the entry count alone.
func virtDirSize(entries int) int64 { return 4096 * (1 + int64(entries)/128) }
