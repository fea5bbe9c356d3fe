// Package kernel implements the simulated Linux kernel the whole system runs
// on: processes and threads, a filesystem view, pipes, signals, timers,
// futexes, sockets, and an x86-64 syscall interface.
//
// # Execution model
//
// Guest programs are Go functions that may only interact with the world by
// yielding actions (system calls, compute bursts, CPU instructions) to the
// kernel. Each guest thread is a coroutine its kernel owns (handoff.go), run
// in strict lockstep with the kernel loop: the kernel switches to exactly one
// guest at a time and gets control back at its next yield, so guest code is
// mutually excluded and the simulation is a deterministic function of the
// kernel's scheduling decisions.
//
// Virtual parallelism is modelled in time, not in execution: compute bursts
// are list-scheduled onto the machine profile's cores, and each thread
// carries its own virtual clock. The baseline policy orders actions by those
// clocks with entropy-seeded jitter and tie-breaking — reproducing the
// scheduling nondeterminism of a real multiprocessor — while DetTrace's
// policy (internal/core) orders them by its reproducible queues.
//
// # Nondeterminism budget
//
// Every irreproducibility source from the paper's taxonomy enters here:
// wall-clock time and file timestamps, inode numbers, getdents order, host
// PIDs, /dev/urandom, rdtsc/cpuid/rdrand, signal arrival, scheduling races.
// All of it is a deterministic function of (machine profile, entropy seed,
// wall epoch), so "two runs of the machine" means two seeds, and DetTrace's
// claim is checkable: same container inputs, different seeds, same outputs.
package kernel

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prng"
)

// CostModel holds the virtual-time constants of the simulation, in
// nanoseconds. The defaults are calibrated so the DetTrace policy reproduces
// the paper's performance shape (Fig. 5, Fig. 6).
type CostModel struct {
	SyscallBase  int64 // kernel entry/exit for any syscall
	SyscallPerKB int64 // additional cost per KiB moved by read/write
	SpawnCost    int64 // fork/clone
	ExecCost     int64 // execve image setup
	VdsoCost     int64 // user-space vDSO fast path (no kernel entry)
	InstrCost    int64 // one untrapped special instruction
	BlockPoll    int64 // re-check interval charged when a blocked call retries
	WsForkCost   int64 // forking one thread workspace (COW view setup)
	WsMergeCost  int64 // merging one thread workspace at a sync point

	// ComputeJitterPPM perturbs every compute burst by ±ppm/1e6, drawn from
	// host entropy: microarchitectural timing noise. It makes racing
	// processes finish in different orders on different runs.
	ComputeJitterPPM int64
}

// DefaultCostModel returns the calibrated constants.
func DefaultCostModel() CostModel {
	return CostModel{
		SyscallBase:      1_500,
		SyscallPerKB:     250,
		SpawnCost:        60_000,
		ExecCost:         120_000,
		VdsoCost:         40,
		InstrCost:        15,
		BlockPoll:        8_000,
		WsForkCost:       8_000,
		WsMergeCost:      12_000,
		ComputeJitterPPM: 4_000,
	}
}

// Disposition tells the kernel what a policy decided at a syscall entry.
type Disposition int

// Possible verdicts from Policy.SyscallEnter.
const (
	// DispExecute: run the syscall normally.
	DispExecute Disposition = iota
	// DispEmulate: the policy filled sc.Ret (and any out buffers) itself;
	// the kernel skips execution.
	DispEmulate
	// DispAbort: reproducible container-level error; the run stops.
	DispAbort
)

// EnterResult is returned by Policy.SyscallEnter.
type EnterResult struct {
	Disposition Disposition
	// PreCost/PostCost are tracer-side overhead (handler work) added to the
	// call, in nanoseconds. When Serialize is set they occupy the single
	// tracer timeline.
	PreCost, PostCost int64
	// LocalCost is tracee-side overhead (the stop's context switches, cache
	// pollution): it stalls this process but runs on its own core, so
	// parallel tracees pay it concurrently. This split is why DetTrace
	// scales at all for process-parallel workloads (Fig. 6).
	LocalCost int64
	// Serialize forces the call through the single tracer timeline, which
	// is what sequentializes system call execution under DetTrace (§5.6).
	Serialize bool
	// AbortErr is the container error when Disposition == DispAbort.
	AbortErr error
}

// ExitResult is returned by Policy.SyscallExit.
type ExitResult struct {
	// Retry re-executes the (possibly adjusted) syscall before the tracee
	// resumes — the PC-reset trick of Fig. 4. The kernel loops on retries.
	Retry bool
	// PostCost is additional tracer time spent in the exit handler.
	PostCost int64
}

// Policy is the decision layer above the kernel: the baseline scheduler, the
// DetTrace container, or the record-and-replay tracer. The kernel owns all
// mechanism (what syscalls do); the policy owns ordering, interception and
// rewriting.
type Policy interface {
	// Name labels the policy in stats and debug output.
	Name() string

	// PickNext chooses which pending thread's action to process. The kernel
	// passes pending sorted by TID for determinism; the policy may instead
	// return a thread it previously parked (its Blocked queue) to retry.
	PickNext(k *Kernel, pending []*Thread) *Thread

	// SyscallEnter runs at the pre-syscall stop and may rewrite sc.
	SyscallEnter(t *Thread, sc *abi.Syscall) EnterResult

	// SyscallExit runs at the post-syscall stop and may rewrite results or
	// request a retry.
	SyscallExit(t *Thread, sc *abi.Syscall) ExitResult

	// WouldBlock is consulted when an executed syscall reports it would
	// block. Returning true parks the thread with the policy (the DetTrace
	// Blocked queue); returning false lets the kernel use its own blocking
	// (baseline semantics). The kernel re-executes the call on wake either
	// way.
	WouldBlock(t *Thread, sc *abi.Syscall) bool

	// Instr handles a special CPU instruction. If handled is false the
	// kernel executes it on the hardware model.
	Instr(t *Thread, req cpu.Request) (res cpu.Result, handled bool, cost int64)

	// OnSpawn and OnExit observe process lifecycle for pid virtualization
	// and scheduling bookkeeping.
	OnSpawn(parent, child *Thread)
	OnExit(t *Thread)

	// OnExec runs after a successful execve — where DetTrace replaces the
	// vDSO, re-arms instruction traps and maps its scratch page (§5.3,
	// §5.10).
	OnExec(t *Thread)
}

// VdsoProvider is an optional Policy extension: a tracer whose patched vDSO
// answers timing calls directly in user space (§5.3's planned fast path)
// implements it to supply the value.
type VdsoProvider interface {
	VdsoTime(t *Thread) int64
}

// SyscallBufferer is an optional Policy extension: a tracer that injects an
// rr-style in-tracee syscall buffer implements it to service light calls on
// the guest side of the hand-off, with no kernel round trip.
//
// BufferSyscall runs on the *guest coroutine*, before the call would yield.
// Returning true means the call was fully serviced (sc.Ret and out buffers
// filled, costs charged to t's clocks) and the thread keeps running;
// returning false falls through to the normal yield path. This is safe only
// because of strict lockstep: the kernel loop is suspended until this
// thread's next yield, so exactly one goroutine touches kernel and policy
// state. Implementations must not unblock other threads or change global
// scheduling state — decisions that need the kernel loop must return false.
type SyscallBufferer interface {
	BufferSyscall(t *Thread, sc *abi.Syscall) bool
}

// WorkspaceScheduler is an optional Policy extension (the workspace-
// consistency mode of ISSUE 7): a tracer that gives sibling threads private
// copy-on-write workspaces between sync points implements it to let their
// compute bursts overlap on the *physical* clock. The logical clock stays
// token-serialized either way, so every ordering decision — and therefore
// every guest-visible byte — is identical with and without workspaces; only
// the modeled wall time changes. ComputeConcurrent reports whether t's
// current burst may bypass the physical serialized-thread token.
type WorkspaceScheduler interface {
	ComputeConcurrent(t *Thread) bool
	// WorkspacesEnabled reports whether workspace mode is on at all for
	// this boot, independent of any particular thread's state. Must be
	// constant for the kernel's lifetime.
	WorkspacesEnabled() bool
}

// Container-level errors a run can end with.
var (
	// ErrDeadlock: every live thread is blocked and no timer can fire.
	ErrDeadlock = errors.New("kernel: deadlock: all threads blocked")
	// ErrTimeout: the virtual deadline passed (build timeouts in §7.1).
	ErrTimeout = errors.New("kernel: virtual time limit exceeded")
	// ErrRunaway: the action budget was exhausted (busy loop safety net).
	ErrRunaway = errors.New("kernel: action budget exhausted")
	// ErrHalted: a debugger halt point (HaltAtAction/HaltAtLTime) was
	// reached. Not a failure: the kernel state at the halt is the result.
	ErrHalted = errors.New("kernel: halted at requested logical instant")
)

// AbortError wraps a policy-raised reproducible container error.
type AbortError struct{ Err error }

func (e *AbortError) Error() string { return "container aborted: " + e.Err.Error() }

// Unwrap exposes the underlying reason.
func (e *AbortError) Unwrap() error { return e.Err }

// ExecImage is what execve hands to the program resolver: the executable
// file's bytes plus the new argv/env.
type ExecImage struct {
	Path    string
	Exe     []byte
	Argv    []string
	Env     []string
	Payload []byte // bytes after the interpreter line, for self-inspection
}

// ProgramFn is a resolved guest program bound to a thread.
type ProgramFn func(t *Thread) int

// Resolver turns an executable file into a runnable program. It returns
// ENOEXEC-style errors as errnos.
type Resolver func(img *ExecImage) (ProgramFn, abi.Errno)

// Config assembles one simulated run.
type Config struct {
	Profile  *machine.Profile
	Seed     uint64    // host entropy seed: "which physical run is this"
	Epoch    int64     // wall-clock seconds at boot (reprotest varies this)
	Image    *fs.Image // initial filesystem state
	Policy   Policy    // nil means the baseline nondeterministic policy
	Resolver Resolver
	Cost     CostModel

	// Deadline bounds virtual time (ns); 0 means no limit.
	Deadline int64
	// MaxActions bounds processed actions; 0 picks a generous default.
	MaxActions int64
	// NumCPU overrides the profile's core count (reprotest varies CPUs).
	NumCPU int

	// Obs, when non-nil, is the metrics registry this boot's counters land
	// on (a private registry is created otherwise). Rec, when non-nil, is
	// the flight recorder event sinks write to; a nil recorder records
	// nothing (the DisableObservability ablation). Neither feeds back into
	// guest-visible state.
	Obs *obs.Registry
	Rec *obs.Recorder

	// CrashAtAction, when > 0, is the deterministic fault plane: Run fails
	// with ErrInjectedCrash once the processed-action count reaches it. The
	// action count is a pure function of guest behaviour (independent of
	// observability or templates), so the same config crashes at the same
	// traced stop on every run.
	CrashAtAction int64

	// Checkpointer, when non-nil, is offered a sealed Checkpoint (plus the
	// surviving thread, for policy-side sealing) at every quiescent traced
	// stop. Sealing is read-only and fires only at stops a checkpoint-free
	// run reaches identically, so attaching a checkpointer never perturbs
	// guest-visible behaviour.
	Checkpointer func(*Checkpoint, *Thread)

	// DeltaSeals makes every checkpoint after the first a delta against the
	// previous seal (fs.SealCheckpoint's delta mode). Mechanism-only: seals
	// restore bitwise-identically either way.
	DeltaSeals bool

	// HaltAtAction / HaltAtLTime, when > 0, stop the run with ErrHalted at
	// the first top-of-loop stop where the processed-action count (resp. the
	// logical clock) has reached the given value — the time-travel debugger's
	// seek primitive. Both are pure functions of guest behaviour, so a halted
	// replay observes exactly the state the uninterrupted run passed through.
	HaltAtAction int64
	HaltAtLTime  int64
}

// Stats aggregates everything a run counted. Weighted counters account for
// the per-action Weight multiplier (one executed event representing W real
// events at paper scale).
type Stats struct {
	Syscalls       int64 // weighted syscall events
	SyscallsRaw    int64 // unweighted (actually executed)
	Spawns         int64 // weighted fork/clone events
	Execs          int64
	Instrs         int64 // weighted special instructions issued
	RdtscTrapped   int64 // weighted rdtsc[p] emulated by the policy
	CpuidTrapped   int64
	MemReads       int64 // tracer reads of tracee memory (weighted)
	MemWrites      int64
	SchedRequests  int64 // PickNext calls that had a choice to make
	BlockedReplays int64 // policy-parked retries (DetTrace Blocked queue)
	ReadRetries    int64 // injected read continuations (Fig. 4)
	WriteRetries   int64
	UrandomOpens   int64 // weighted opens of /dev/[u]random
	TimeCalls      int64
	SignalsSent    int64
	VdsoCalls      int64 // time reads served without kernel entry
	TracerBusy     int64 // ns the serialized tracer timeline was occupied
	PerSyscall     map[abi.Sysno]int64
	// StopsPerSyscall is the weighted count of traced calls per syscall: the
	// stops a policy charged a tracer handler for. The policy keeps it.
	StopsPerSyscall SyscallCounts
}

// SyscallCounts is a sparse weighted count per syscall. The first few
// distinct calls live inline and only a run with more makes a map, so a short
// run (a boot, a one-shot command) counts without allocating; a package build
// stops on eight to ten.
type SyscallCounts struct {
	nr   [4]abi.Sysno
	n    [4]int64
	more map[abi.Sysno]int64
}

// Add counts w more for nr; w must be positive.
func (c *SyscallCounts) Add(nr abi.Sysno, w int64) {
	for i := range c.nr {
		if c.n[i] == 0 {
			c.nr[i], c.n[i] = nr, w
			return
		}
		if c.nr[i] == nr {
			c.n[i] += w
			return
		}
	}
	if c.more == nil {
		c.more = make(map[abi.Sysno]int64)
	}
	c.more[nr] += w
}

// Map returns the counts as a fresh map.
func (c *SyscallCounts) Map() map[abi.Sysno]int64 {
	m := make(map[abi.Sysno]int64, len(c.n)+len(c.more))
	maps.Copy(m, c.more)
	for i, n := range c.n {
		if n != 0 {
			m[c.nr[i]] = n
		}
	}
	return m
}

// kernelState is the kernel's own sealed state: a field declared here is
// carried by every Checkpoint (seal clones the struct, Resume assigns it
// back); everything declared on Kernel itself is rebuilt by the constructor
// or is empty at a quiescent stop. Plain data only — no pointers, funcs or
// interfaces — so a seal can never alias or pin a live kernel.
type kernelState struct {
	Stats Stats

	epoch int64 // wall seconds at boot
	now   int64 // global virtual ns since boot (monotone)

	cores      []int64 // per-core busy-until times
	tracerBusy int64   // serialized tracer timeline busy-until

	// tracerGaps are free intervals left behind on the physical tracer
	// timeline when a stop was serviced later than the previous high-water
	// mark. Only workspace mode fills them (see tracerServe); outside it the
	// kernel processes stops in arrival order and no usable gap ever forms.
	tracerGaps []tracerGap

	// Logical mirrors of the time structures above, maintained with
	// nominal costs so deterministic policies can order by them.
	lnow        int64
	lcores      []int64
	ltracerBusy int64

	nextPID int
	actions int64
}

// clone deep-copies the state: every slice and map gets its own backing.
func (s kernelState) clone() kernelState {
	s.cores = slices.Clone(s.cores)
	s.lcores = slices.Clone(s.lcores)
	s.tracerGaps = slices.Clone(s.tracerGaps)
	s.Stats.PerSyscall = maps.Clone(s.Stats.PerSyscall)
	s.Stats.StopsPerSyscall.more = maps.Clone(s.Stats.StopsPerSyscall.more)
	return s
}

// Kernel is one booted machine instance running one process tree.
type Kernel struct {
	kernelState

	Profile *machine.Profile
	Entropy *prng.Host
	FS      *fs.FS
	HW      *cpu.HW
	Cost    CostModel
	Policy  Policy

	resolver Resolver

	// fastPath is non-nil when the policy implements SyscallBufferer; cached
	// once at boot so the dispatch hot path avoids a per-call type assertion.
	fastPath SyscallBufferer
	// wsched is non-nil when the policy implements WorkspaceScheduler;
	// cached at boot like fastPath.
	wsched WorkspaceScheduler

	// Obs is this boot's metrics registry; Rec the (possibly nil) flight
	// recorder. sysVec is the dense per-syscall table on Obs, indexed by
	// syscall number and folded into Stats.PerSyscall when Run returns.
	Obs         *obs.Registry
	Rec         *obs.Recorder
	sysVec      *obs.CounterVec
	statsFolded bool

	procs    map[int]*Proc
	pending  []*Thread // yielded, waiting for their action to be processed
	kblocked []*Thread // blocked with kernel semantics (baseline)
	parked   []*Thread // blocked with policy semantics (DetTrace queues)

	deadline   int64
	maxActions int64
	abortErr   error

	// Fault/checkpoint plane (checkpoint.go). lastCheckpoint guards against
	// re-sealing the same action count: a resumed kernel starts at its seal
	// point, which the uninterrupted run sealed exactly once.
	crashAt        int64
	checkpointer   func(*Checkpoint, *Thread)
	lastCheckpoint int64
	deltaSeals     bool
	haltAtAction   int64
	haltAtLTime    int64

	devices       map[string]func() fs.Device // device registry by DevID
	unixListeners map[string]*socket          // AF_UNIX listeners by path

	// Console captures everything written to stdout/stderr fds, in the
	// order writes were processed — itself a reproducibility observable.
	Console *Console

	// timers is the list of armed itimers across all processes.
	timers []*timer

	// debugf, when non-nil, receives a trace of every processed action.
	debugf func(format string, args ...any)
}

// New boots a kernel per the config. The filesystem is populated from the
// image; no process exists yet — call Start. It is the flat front end of
// ColdBoot: the one place a Config is split into its prepared and per-run
// halves.
func New(cfg Config) *Kernel {
	return ColdBoot(cfg.Profile, cfg.Cost, cfg.Image, BootConfig{
		Seed:          cfg.Seed,
		Epoch:         cfg.Epoch,
		Policy:        cfg.Policy,
		Deadline:      cfg.Deadline,
		MaxActions:    cfg.MaxActions,
		NumCPU:        cfg.NumCPU,
		Resolver:      cfg.Resolver,
		Obs:           cfg.Obs,
		Rec:           cfg.Rec,
		CrashAtAction: cfg.CrashAtAction,
		Checkpointer:  cfg.Checkpointer,
		DeltaSeals:    cfg.DeltaSeals,
		HaltAtAction:  cfg.HaltAtAction,
		HaltAtLTime:   cfg.HaltAtLTime,
	})
}

// ColdBoot is New for callers that already hold the per-run half as a
// BootConfig: it populates img into a fresh filesystem, where Snapshot.Boot
// COW-forks a prepared one. A zero cost selects DefaultCostModel.
func ColdBoot(profile *machine.Profile, cost CostModel, img *fs.Image, b BootConfig) *Kernel {
	return newKernel(profile, cost, b, func(k *Kernel, fsEntropy *prng.Host) *fs.FS {
		f := fs.New(profile, k.WallClock, fsEntropy)
		if img != nil {
			f.Populate(img)
		}
		return f
	})
}

// attach is the one Kernel constructor: the per-run half, everything a
// BootConfig names apart from the accidents of the boot (Seed, Epoch,
// NumCPU). The machine state is its caller's to supply — newKernel boots it
// fresh from the seed, Resume restores it from a Checkpoint.
func attach(profile *machine.Profile, cost CostModel, b BootConfig) *Kernel {
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	if b.MaxActions == 0 {
		b.MaxActions = 200_000_000
	}
	k := &Kernel{
		Profile:    profile,
		Cost:       cost,
		Policy:     b.Policy,
		resolver:   b.Resolver,
		Obs:        b.Obs,
		Rec:        b.Rec,
		procs:      make(map[int]*Proc),
		deadline:   b.Deadline,
		maxActions: b.MaxActions,
		devices:    make(map[string]func() fs.Device),

		crashAt:      b.CrashAtAction,
		checkpointer: b.Checkpointer,
		deltaSeals:   b.DeltaSeals,
		haltAtAction: b.HaltAtAction,
		haltAtLTime:  b.HaltAtLTime,
	}
	if k.Obs == nil {
		k.Obs = obs.NewRegistry()
	}
	k.sysVec = k.Obs.CounterVec("kernel_syscalls", abi.SysnoSlots)
	k.registerStandardDevices()
	k.fastPath, _ = b.Policy.(SyscallBufferer)
	k.wsched, _ = b.Policy.(WorkspaceScheduler)
	return k
}

// newKernel is the boot path shared by ColdBoot (populate the image into a
// fresh FS) and Snapshot.Boot (warm: COW-fork a frozen template base).
//
// The host entropy draw order below is a compatibility contract: the seed
// pool is read for (1) the PID base, (2) the filesystem fork — whose single
// draw both fs.New and fs.Fork perform identically — (3) the hardware model,
// (4) the baseline policy when no policy is supplied. Warm boots are bitwise
// identical to cold boots only while both paths consume entropy in exactly
// this sequence, so mkFS receives its own pre-forked pool.
func newKernel(profile *machine.Profile, cost CostModel, b BootConfig, mkFS func(k *Kernel, fsEntropy *prng.Host) *fs.FS) *Kernel {
	k := attach(profile, cost, b)
	k.Entropy = prng.NewHost(b.Seed)
	k.epoch = b.Epoch
	k.nextPID = 1000 + k.Entropy.Intn(30_000) // host PIDs start anywhere
	k.Console = &Console{}
	k.lastCheckpoint = -1
	k.Stats.PerSyscall = make(map[abi.Sysno]int64)
	cores := profile.Cores
	if b.NumCPU > 0 {
		cores = b.NumCPU
	}
	k.cores = make([]int64, cores)
	k.lcores = make([]int64, cores)
	k.FS = mkFS(k, k.Entropy.Fork())
	k.HW = cpu.NewHW(profile, k.Entropy.Fork(), func() int64 { return k.now })
	k.populateProc()
	if k.Policy == nil {
		k.Policy = newBaselinePolicy(k.Entropy.Fork())
	}
	return k
}

// countSyscall bumps the per-syscall counter on the dense obs vector,
// falling back to the map for out-of-range numbers. The kernel loop is the
// only writer (lockstep), so the vector's single atomic add per call keeps
// the old dense table's hot-path profile.
func (k *Kernel) countSyscall(nr abi.Sysno, w int64) {
	if k.sysVec.InRange(int(nr)) {
		k.sysVec.Add(int(nr), w)
		return
	}
	k.Stats.PerSyscall[nr] += w
}

// foldStats merges the dense per-syscall vector into the exported map. The
// obs registry keeps its copy untouched (the farm roll-up wants the
// registry to still carry the totals), so the fold reads rather than
// drains; the guard keeps repeated Run calls from double-counting.
func (k *Kernel) foldStats() {
	if k.statsFolded {
		return
	}
	k.statsFolded = true
	for i := 0; i < k.sysVec.Len(); i++ {
		if n := k.sysVec.At(i); n != 0 {
			k.Stats.PerSyscall[abi.Sysno(i)] += n
		}
	}
}

// SetDebug installs a debug trace sink (the CLI's --debug flag).
func (k *Kernel) SetDebug(f func(string, ...any)) { k.debugf = f }

// WallClock returns the current wall-clock time in nanoseconds since the
// Unix epoch: boot epoch plus elapsed virtual time.
func (k *Kernel) WallClock() int64 { return k.epoch*1e9 + k.now }

// Now returns virtual nanoseconds since boot.
func (k *Kernel) Now() int64 { return k.now }

// LNow returns logical nanoseconds since boot: the jitter-free mirror of
// Now, maintained with nominal costs only. Flight-recorder events stamp
// with this clock because it is a pure function of guest behaviour — no
// host entropy, no epoch.
func (k *Kernel) LNow() int64 { return k.lnow }

// NumCores returns the number of schedulable CPUs in this boot.
func (k *Kernel) NumCores() int { return len(k.cores) }

// Epoch returns the boot epoch in seconds.
func (k *Kernel) Epoch() int64 { return k.epoch }

// RegisterDevice maps a DevID to a device constructor; opening a device
// inode instantiates it.
func (k *Kernel) RegisterDevice(id string, mk func() fs.Device) { k.devices[id] = mk }

// Start creates the init process (PID namespace root) running fn with the
// given argv/env, rooted at the filesystem root.
func (k *Kernel) Start(fn ProgramFn, argv, env []string) *Proc {
	p := k.newProc(nil)
	p.Argv = argv
	p.Env = append([]string(nil), env...)
	p.Root = k.FS.Root
	p.Cwd = k.FS.Root
	t := k.newThread(p, fn)
	k.startThread(t)
	return p
}

// Actions returns the processed-action count: the logical-history index
// fault injection (Config.CrashAtAction) and checkpoints are scheduled on.
// Deterministic — a pure function of the container's inputs and config.
func (k *Kernel) Actions() int64 { return k.actions }

// Run drives the simulation until every process has exited, a container
// error aborts it, or a limit trips. It returns nil on clean completion.
// However it ends, every guest coroutine has finished when it returns; a
// panic in guest code surfaces here, after the other guests were stopped.
func (k *Kernel) Run() error {
	defer func() {
		if r := recover(); r != nil {
			k.killEverything()
			panic(r)
		}
	}()
	err := k.run()
	k.foldStats()
	return err
}

func (k *Kernel) run() error {
	for {
		if k.abortErr != nil {
			k.killEverything()
			return k.abortErr
		}
		if len(k.pending) == 0 && len(k.kblocked) == 0 && len(k.parked) == 0 {
			return nil // everything exited
		}
		// Checkpoint before the pick (the pick's scheduler event belongs to
		// the suffix), then let an injected crash fire — a run killed at a
		// stop that was just sealed recovers from that very seal.
		k.maybeCheckpoint()
		if k.crashAt > 0 && k.actions >= k.crashAt {
			k.killEverything()
			return ErrInjectedCrash
		}
		// Debugger halt points stop at the same top-of-loop boundary the
		// fault plane uses, so a halted replay's history is a strict prefix
		// of the uninterrupted run's.
		if (k.haltAtAction > 0 && k.actions >= k.haltAtAction) ||
			(k.haltAtLTime > 0 && k.lnow >= k.haltAtLTime) {
			k.killEverything()
			return ErrHalted
		}
		if len(k.pending) == 0 && len(k.parked) == 0 {
			// Only kernel-blocked threads remain: time can only advance via
			// timers (e.g. everyone in nanosleep/alarm).
			if !k.fireEarliestTimer() {
				k.killEverything()
				return ErrDeadlock
			}
			k.wakeKernelBlocked()
			continue
		}
		t := k.choose()
		if t == nil {
			// The policy had nothing runnable; give timers a chance before
			// declaring deadlock (DetTrace's Blocked queue may be waiting
			// on an alarm).
			if !k.fireEarliestTimer() {
				k.killEverything()
				if k.abortErr != nil {
					return k.abortErr
				}
				return ErrDeadlock
			}
			k.wakeKernelBlocked()
			continue
		}
		k.processAction(t)
		k.wakeKernelBlocked()
		k.checkTimers()
		k.actions++
		if k.deadline > 0 && k.now > k.deadline {
			k.killEverything()
			return ErrTimeout
		}
		if k.actions > k.maxActions {
			k.killEverything()
			return ErrRunaway
		}
	}
}

// choose asks the policy for the next thread among the pending set.
func (k *Kernel) choose() *Thread {
	if len(k.pending) > 1 || len(k.parked) > 0 {
		k.Stats.SchedRequests += k.weightOf(nil)
	}
	if len(k.pending) > 1 {
		slices.SortFunc(k.pending, func(a, b *Thread) int { return a.TID - b.TID })
	}
	return k.Policy.PickNext(k, k.pending)
}

func (k *Kernel) weightOf(t *Thread) int64 {
	if t != nil && t.Proc.Weight > 1 {
		return t.Proc.Weight
	}
	return 1
}

// Abort raises a reproducible container-level error; the run stops at the
// next loop iteration.
func (k *Kernel) Abort(err error) {
	if k.abortErr == nil {
		k.abortErr = &AbortError{Err: err}
	}
}

// Aborted reports the pending abort error, if any.
func (k *Kernel) Aborted() error { return k.abortErr }

// advanceGlobal moves the monotone global clock forward.
func (k *Kernel) advanceGlobal(t int64) {
	if t > k.now {
		k.now = t
	}
}

// advanceLogical moves the monotone logical clock forward.
func (k *Kernel) advanceLogical(t int64) {
	if t > k.lnow {
		k.lnow = t
	}
}

// removePending drops t from the pending set.
func (k *Kernel) removePending(t *Thread) {
	for i, p := range k.pending {
		if p == t {
			k.pending = append(k.pending[:i], k.pending[i+1:]...)
			return
		}
	}
}

// killEverything stops every live thread's coroutine; used for aborts,
// crashes, halts, deadlocks and timeouts.
func (k *Kernel) killEverything() {
	for _, p := range k.procs {
		for _, t := range p.Threads {
			if !t.dead {
				k.killThread(t)
			}
		}
	}
	k.pending = nil
	k.kblocked = nil
	k.parked = nil
}

// Console buffers container stdout/stderr in processing order.
type Console struct {
	Out []byte
	Err []byte
}

// Stdout returns everything written to fd 1 so far.
func (c *Console) Stdout() string { return string(c.Out) }

// Stderr returns everything written to fd 2 so far.
func (c *Console) Stderr() string { return string(c.Err) }

// baselinePolicy is the "no tracer attached" policy: actions are processed
// in virtual-clock order with entropy tie-breaking, syscalls pass through
// untouched, blocking uses kernel semantics. This is what a stock Linux box
// looks like to the workload.
type baselinePolicy struct {
	entropy *prng.Host
}

func newBaselinePolicy(e *prng.Host) *baselinePolicy { return &baselinePolicy{entropy: e} }

func (b *baselinePolicy) Name() string { return "baseline" }

func (b *baselinePolicy) PickNext(k *Kernel, pending []*Thread) *Thread {
	if len(pending) == 0 {
		return nil
	}
	best := pending[0]
	ties := 1
	for _, t := range pending[1:] {
		switch {
		case t.Clock < best.Clock:
			best, ties = t, 1
		case t.Clock == best.Clock:
			// Reservoir-sample among equal clocks: scheduler races.
			ties++
			if b.entropy.Intn(ties) == 0 {
				best = t
			}
		}
	}
	return best
}

func (b *baselinePolicy) SyscallEnter(t *Thread, sc *abi.Syscall) EnterResult {
	return EnterResult{Disposition: DispExecute}
}

func (b *baselinePolicy) SyscallExit(t *Thread, sc *abi.Syscall) ExitResult {
	return ExitResult{}
}

func (b *baselinePolicy) WouldBlock(t *Thread, sc *abi.Syscall) bool { return false }

func (b *baselinePolicy) Instr(t *Thread, req cpu.Request) (cpu.Result, bool, int64) {
	return cpu.Result{}, false, 0
}

func (b *baselinePolicy) OnSpawn(parent, child *Thread) {}
func (b *baselinePolicy) OnExit(t *Thread)              {}
func (b *baselinePolicy) OnExec(t *Thread)              {}

var _ Policy = (*baselinePolicy)(nil)

// errString is a tiny constant-friendly error type for syscall-layer errors.
type errString string

func (e errString) Error() string { return string(e) }

// fmtPID formats a pid for debug lines.
func fmtPID(p *Proc) string { return fmt.Sprintf("pid%d", p.PID) }
