package kernel

import (
	"errors"

	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prng"
)

// This file implements crash-consistent mid-run checkpoints (ISSUE 5). A
// checkpoint seals the complete kernel state at a *quiescent traced stop* so
// that a run killed afterwards can be resumed bitwise-identically: same
// output, same flight-recorder stream, same metrics as the uninterrupted run.
//
// Why quiescent stops, and why execve. Guest programs are Go functions; their
// goroutine stacks cannot be serialized. The only cut points where no guest
// stack needs saving are stops whose continuation is itself a fresh program
// image: an execve that has not been attempted yet. At such a stop the
// thread's entire future is (program image, argv, env) — all plain data — so
// a resume can re-issue the very same execve from a stub and the run
// continues exactly where it left off. Quiescence additionally requires that
// nothing else is in flight: one process, one live thread, no blocked or
// parked threads, no pending signals, no timers, no non-console fds, no
// chroot. Workloads opt into checkpointability by funnelling through such
// states (the build trampoline's phase-boundary self-execs).
//
// The seal happens at the top of the run loop, *before* the scheduler pick:
// the pick for the sealed execve then lands in the suffix of both the
// uninterrupted and the resumed run, so scheduler rings and counters match.

// ErrInjectedCrash is returned by Run when the deterministic fault plane
// kills the kernel at a scheduled action count (Config.CrashAtAction).
var ErrInjectedCrash = errors.New("kernel: injected crash (deterministic fault plane)")

// Checkpoint is the sealed kernel state. Fields are unexported: a checkpoint
// is an opaque token produced by the run loop and consumed by Resume; the
// exported accessors expose only what recovery bookkeeping needs.
type Checkpoint struct {
	profile *machine.Profile
	cost    CostModel
	epoch   int64

	entropyState   uint64 // host pool cursor (splitmix64 counter)
	hwEntropyState uint64 // hardware pool cursor
	bootTSC        uint64

	now, lnow               int64
	cores, lcores           []int64
	tracerBusy, ltracerBusy int64
	tracerGaps              []tracerGap

	actions int64
	nextPID int

	stats Stats // PerSyscall deep-copied

	consoleOut, consoleErr []byte

	fsSeal *fs.Seal

	proc   procSeal
	thread threadSeal

	// The unattempted execve to re-issue on resume.
	execPath    string
	execHasArgs bool
	execArgv    []string
	execEnv     []string
}

// procSeal is the surviving process's plain-data state.
type procSeal struct {
	pid, ppid int
	argv, env []string
	comm      string
	uid, gid  uint32
	umask     uint32
	cwdPath   string

	brk, brkBase      int64
	mmapBase, mmapOff int64

	fds []fdSeal

	zombies []zombie
	mem     map[int64]int64

	trap                      cpu.TrapConfig
	vdsoReplaced, vdsoLogical bool
	scratchPage               bool
	weight                    int64
	timeCallCount             int64
	threadBusy, lthreadBusy   int64
}

// fdSeal is one console descriptor (quiescence admits no other kind).
type fdSeal struct {
	num        int
	flags      int
	consoleErr bool
}

// threadSeal is the surviving thread's plain-data state.
type threadSeal struct {
	tid           int
	clock, lclock int64
	spinCount     int
	bufCount      int
}

// Actions returns the processed-action count at the seal — the checkpoint's
// position on the deterministic event axis.
func (cp *Checkpoint) Actions() int64 { return cp.actions }

// VirtualNow returns the sealed virtual time in nanoseconds since boot; the
// difference between a resumed run's final Now and this value is the virtual
// work re-executed after restore (the X15 MTTR metric).
func (cp *Checkpoint) VirtualNow() int64 { return cp.now }

// LNow returns the sealed logical time.
func (cp *Checkpoint) LNow() int64 { return cp.lnow }

// FSSeal exposes the sealed (frozen) filesystem tree for read-only
// inspection. The incremental-rebuild planner walks it to learn what the
// sealed prefix had built — the phase journal and the object tree — without
// resuming the checkpoint (core.Checkpoint.RebuildInfo); the time-travel
// debugger serves filesystem views from it. When the seal is a delta, shared
// subtrees resolve transparently through the chain.
func (cp *Checkpoint) FSSeal() *fs.FS { return cp.fsSeal.Tree() }

// FSSealChain exposes the seal object itself: its delta-chain link, cost
// stats, and chain validation.
func (cp *Checkpoint) FSSealChain() *fs.Seal { return cp.fsSeal }

// FSSealStats returns the filesystem seal's cost accounting (delta vs full
// bytes — the checkpoint_delta_bytes/checkpoint_full_bytes counters).
func (cp *Checkpoint) FSSealStats() fs.SealStats { return cp.fsSeal.Stats() }

// CorruptFSSeal flips a bit in the seal's stored digest — the deterministic
// storage-fault hook behind core's FaultCorruptCheckpoint.
func (cp *Checkpoint) CorruptFSSeal() { cp.fsSeal.Corrupt() }

// quiescentStop returns the sole pending thread if the kernel is at a
// checkpointable stop, nil otherwise. See the file comment for why each
// condition is required.
func (k *Kernel) quiescentStop() *Thread {
	if len(k.pending) != 1 || len(k.kblocked) != 0 || len(k.parked) != 0 {
		return nil
	}
	if len(k.procs) != 1 || len(k.timers) != 0 || len(k.unixListeners) != 0 {
		return nil
	}
	t := k.pending[0]
	act := t.act
	if act == nil || act.kind != yieldSyscall || act.sc == nil {
		return nil
	}
	sc := act.sc
	if sc.Num != abi.SysExecve || sc.Attempts != 0 || sc.Injected {
		return nil
	}
	p := t.Proc
	live := 0
	for _, th := range p.Threads {
		if !th.dead {
			live++
		}
	}
	if live != 1 || t.dead {
		return nil
	}
	// Signal handlers are Go closures and cannot be sealed. At this stop the
	// pending execve will clear them before the new image runs and nothing
	// can deliver a signal in between, so requiring none keeps the (remote)
	// failed-execve path faithful too.
	if len(p.sigPending) != 0 || len(p.handlers) != 0 {
		return nil
	}
	for _, ws := range p.futexWaiters {
		if len(ws) != 0 {
			return nil
		}
	}
	if p.Root != k.FS.Root {
		return nil
	}
	for _, f := range p.FDs.fds {
		if f.kind != fdConsole {
			return nil
		}
	}
	return t
}

// seal captures the kernel at the quiescent stop t (from quiescentStop).
func (k *Kernel) seal(t *Thread) *Checkpoint {
	p := t.Proc
	sc := t.act.sc
	cp := &Checkpoint{
		profile:        k.Profile,
		cost:           k.Cost,
		epoch:          k.epoch,
		entropyState:   k.Entropy.State(),
		hwEntropyState: k.HW.Entropy.State(),
		bootTSC:        k.HW.BootTSC(),
		now:            k.now,
		lnow:           k.lnow,
		cores:          append([]int64(nil), k.cores...),
		lcores:         append([]int64(nil), k.lcores...),
		tracerBusy:     k.tracerBusy,
		ltracerBusy:    k.ltracerBusy,
		tracerGaps:     append([]tracerGap(nil), k.tracerGaps...),
		actions:        k.actions,
		nextPID:        k.nextPID,
		stats:          k.Stats,
		consoleOut:     append([]byte(nil), k.Console.Out...),
		consoleErr:     append([]byte(nil), k.Console.Err...),
		fsSeal:         k.FS.SealCheckpoint(k.deltaSeals),
		execPath:       sc.Path,
	}
	cp.stats.PerSyscall = make(map[abi.Sysno]int64, len(k.Stats.PerSyscall))
	for nr, n := range k.Stats.PerSyscall {
		cp.stats.PerSyscall[nr] = n
	}
	if args, ok := sc.Obj.(*ExecArgs); ok && args != nil {
		cp.execHasArgs = true
		cp.execArgv = append([]string(nil), args.Argv...)
		cp.execEnv = append([]string(nil), args.Env...)
	}
	ps := procSeal{
		pid:           p.PID,
		ppid:          p.PPID,
		argv:          append([]string(nil), p.Argv...),
		env:           append([]string(nil), p.Env...),
		comm:          p.Comm,
		uid:           p.UID,
		gid:           p.GID,
		umask:         p.Umask,
		cwdPath:       p.CwdPath,
		brk:           p.brk,
		brkBase:       p.brkBase,
		mmapBase:      p.mmapBase,
		mmapOff:       p.mmapOff,
		trap:          p.Trap,
		vdsoReplaced:  p.VdsoReplaced,
		vdsoLogical:   p.VdsoLogical,
		scratchPage:   p.ScratchPage,
		weight:        p.Weight,
		timeCallCount: p.TimeCallCount,
		threadBusy:    p.threadBusyUntil,
		lthreadBusy:   p.lthreadBusyUntil,
		mem:           make(map[int64]int64, len(p.Mem)),
	}
	for a, v := range p.Mem {
		ps.mem[a] = v
	}
	for _, z := range p.zombies {
		ps.zombies = append(ps.zombies, *z)
	}
	for num, f := range p.FDs.fds {
		ps.fds = append(ps.fds, fdSeal{num: num, flags: f.flags, consoleErr: f.consoleErr})
	}
	cp.proc = ps
	cp.thread = threadSeal{
		tid:       t.TID,
		clock:     t.Clock,
		lclock:    t.LClock,
		spinCount: t.SpinCount,
		bufCount:  t.BufCount,
	}
	return cp
}

// maybeCheckpoint runs at the top of the kernel loop: if a checkpointer is
// attached, the kernel is quiescent, and this action count has not been
// sealed yet (a resumed kernel starts *at* its seal point and must not
// re-seal it), capture a checkpoint and hand it over.
func (k *Kernel) maybeCheckpoint() {
	if k.checkpointer == nil || k.actions <= k.lastCheckpoint {
		return
	}
	t := k.quiescentStop()
	if t == nil {
		return
	}
	k.lastCheckpoint = k.actions
	k.checkpointer(k.seal(t), t)
}

// Resume reconstructs a runnable kernel from a checkpoint. The per-run knobs
// honoured from b are Policy (required: the baseline policy's entropy state
// is not sealed), Resolver, Deadline, MaxActions, Obs/Rec, and the fault /
// checkpoint hooks; Seed, Epoch and NumCPU are ignored — those accidents
// happened at the original boot and the seal carries them verbatim, which is
// what keeps the §4b entropy-draw contract intact: the re-issued execve draws
// its ASLR bases from the restored pool cursor and reproduces the
// uninterrupted run's draws exactly.
//
// The returned thread is the sole survivor, already pending on its sealed
// execve; callers that keep per-thread policy state (the scheduler's seal)
// rebind it before Run.
func Resume(cp *Checkpoint, b BootConfig) (*Kernel, *Proc, *Thread) {
	if b.Policy == nil {
		panic("kernel: Resume requires an explicit policy (baseline policy state is not sealed)")
	}
	resolver := b.Resolver
	maxActions := b.MaxActions
	if maxActions == 0 {
		maxActions = 200_000_000
	}
	k := &Kernel{
		Profile:        cp.profile,
		Cost:           cp.cost,
		Policy:         b.Policy,
		resolver:       resolver,
		epoch:          cp.epoch,
		now:            cp.now,
		lnow:           cp.lnow,
		cores:          append([]int64(nil), cp.cores...),
		lcores:         append([]int64(nil), cp.lcores...),
		tracerBusy:     cp.tracerBusy,
		ltracerBusy:    cp.ltracerBusy,
		tracerGaps:     append([]tracerGap(nil), cp.tracerGaps...),
		nextPID:        cp.nextPID,
		procs:          make(map[int]*Proc),
		deadline:       b.Deadline,
		maxActions:     maxActions,
		actions:        cp.actions,
		devices:        make(map[string]func() fs.Device),
		Console:        &Console{Out: append([]byte(nil), cp.consoleOut...), Err: append([]byte(nil), cp.consoleErr...)},
		crashAt:        b.CrashAtAction,
		checkpointer:   b.Checkpointer,
		lastCheckpoint: cp.actions,
		deltaSeals:     b.DeltaSeals,
		haltAtAction:   b.HaltAtAction,
		haltAtLTime:    b.HaltAtLTime,
	}
	k.Stats = cp.stats
	k.Stats.PerSyscall = make(map[abi.Sysno]int64, len(cp.stats.PerSyscall))
	for nr, n := range cp.stats.PerSyscall {
		k.Stats.PerSyscall[nr] = n
	}
	k.Obs = b.Obs
	if k.Obs == nil {
		k.Obs = obs.NewRegistry()
	}
	k.Rec = b.Rec
	k.sysVec = k.Obs.CounterVec("kernel_syscalls", abi.SysnoSlots)
	k.Entropy = prng.NewHost(0)
	k.Entropy.SetState(cp.entropyState)
	k.FS = cp.fsSeal.Resume(k.WallClock, k.Entropy)
	hwPool := prng.NewHost(0)
	hwPool.SetState(cp.hwEntropyState)
	k.HW = cpu.ResumeHW(cp.profile, hwPool, func() int64 { return k.now }, cp.bootTSC)
	// Device constructors are per-boot state; the /proc pseudo inodes are
	// not (populateProc ran at the original boot and the sealed filesystem
	// carries them), so only the registry is rebuilt here.
	k.registerStandardDevices()
	if fp, ok := k.Policy.(SyscallBufferer); ok {
		k.fastPath = fp
	}
	if ws, ok := k.Policy.(WorkspaceScheduler); ok {
		k.wsched = ws
	}

	ps := cp.proc
	p := &Proc{
		PID:              ps.pid,
		PPID:             ps.ppid,
		Argv:             append([]string(nil), ps.argv...),
		Env:              append([]string(nil), ps.env...),
		Comm:             ps.comm,
		UID:              ps.uid,
		GID:              ps.gid,
		Umask:            ps.umask,
		CwdPath:          ps.cwdPath,
		brk:              ps.brk,
		brkBase:          ps.brkBase,
		mmapBase:         ps.mmapBase,
		mmapOff:          ps.mmapOff,
		FDs:              newFDTable(),
		Mem:              make(map[int64]int64, len(ps.mem)),
		futexWaiters:     make(map[int64][]*Thread),
		Trap:             ps.trap,
		VdsoReplaced:     ps.vdsoReplaced,
		VdsoLogical:      ps.vdsoLogical,
		ScratchPage:      ps.scratchPage,
		Weight:           ps.weight,
		TimeCallCount:    ps.timeCallCount,
		threadBusyUntil:  ps.threadBusy,
		lthreadBusyUntil: ps.lthreadBusy,
	}
	for a, v := range ps.mem {
		p.Mem[a] = v
	}
	for _, z := range ps.zombies {
		zc := z
		p.zombies = append(p.zombies, &zc)
	}
	// Quiescence admits only console descriptors; rebuilding them unshared is
	// faithful because console fds carry no position and their release is a
	// no-op, so dup-sharing is unobservable.
	for _, f := range ps.fds {
		p.FDs.install(f.num, &FD{kind: fdConsole, flags: f.flags, consoleErr: f.consoleErr})
	}
	p.Root = k.FS.Root
	p.Cwd = k.FS.Root
	if ps.cwdPath != "" {
		if n, err := k.FS.Resolve(fs.LookupCtx{Root: k.FS.Root, Cwd: k.FS.Root}, ps.cwdPath, true); err == abi.OK && n.IsDir() {
			p.Cwd = n
		}
	}
	k.procs[p.PID] = p

	// The survivor restarts as a stub that re-issues the sealed execve. The
	// stub's 127 mirrors guest.Spawn's exec-failure convention; on success
	// the execve unwinds the stub and the real image takes over.
	stub := ProgramFn(func(t *Thread) int {
		ev := abi.Syscall{Num: abi.SysExecve, Path: cp.execPath}
		if cp.execHasArgs {
			ev.Obj = &ExecArgs{
				Argv: append([]string(nil), cp.execArgv...),
				Env:  append([]string(nil), cp.execEnv...),
			}
		}
		t.Syscall(&ev)
		return 127
	})
	ts := cp.thread
	t := &Thread{
		TID:       ts.tid,
		Proc:      p,
		Clock:     ts.clock,
		LClock:    ts.lclock,
		SpinCount: ts.spinCount,
		BufCount:  ts.bufCount,
		program:   stub,
		k:         k,
	}
	p.Threads = append(p.Threads, t)
	k.startThread(t)
	return k, p, t
}
