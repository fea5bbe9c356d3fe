package kernel

import (
	"errors"
	"slices"

	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/fs"
	"repro/internal/machine"
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
//
// What is sealed is decided where a field is declared: kern, proc and thread
// are the three state structs of the kernel and its surviving process and
// thread, cloned whole. The rest is what is not plain data and needs a
// representation of its own.
type Checkpoint struct {
	profile *machine.Profile
	cost    CostModel

	kern   kernelState
	proc   procState
	thread threadState
	tid    int

	entropyState   uint64 // host pool cursor (splitmix64 counter)
	hwEntropyState uint64 // hardware pool cursor
	bootTSC        uint64

	consoleOut, consoleErr []byte

	fsSeal *fs.Seal

	fds     []fdSeal
	zombies []zombie

	// The unattempted execve to re-issue on resume.
	execPath    string
	execHasArgs bool
	execArgv    []string
	execEnv     []string
}

// fdSeal is one console descriptor (quiescence admits no other kind).
type fdSeal struct {
	num        int
	flags      int
	consoleErr bool
}

// Actions returns the processed-action count at the seal — the checkpoint's
// position on the deterministic event axis.
func (cp *Checkpoint) Actions() int64 { return cp.kern.actions }

// VirtualNow returns the sealed virtual time in nanoseconds since boot; the
// difference between a resumed run's final Now and this value is the virtual
// work re-executed after restore (the X15 MTTR metric).
func (cp *Checkpoint) VirtualNow() int64 { return cp.kern.now }

// LNow returns the sealed logical time.
func (cp *Checkpoint) LNow() int64 { return cp.kern.lnow }

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
		kern:           k.kernelState.clone(),
		proc:           p.procState.clone(),
		thread:         t.threadState.clone(),
		tid:            t.TID,
		entropyState:   k.Entropy.State(),
		hwEntropyState: k.HW.Entropy.State(),
		bootTSC:        k.HW.BootTSC(),
		consoleOut:     slices.Clone(k.Console.Out),
		consoleErr:     slices.Clone(k.Console.Err),
		fsSeal:         k.FS.SealCheckpoint(k.deltaSeals),
		execPath:       sc.Path,
	}
	if args, ok := sc.Obj.(*ExecArgs); ok && args != nil {
		cp.execHasArgs = true
		cp.execArgv = slices.Clone(args.Argv)
		cp.execEnv = slices.Clone(args.Env)
	}
	for _, z := range p.zombies {
		cp.zombies = append(cp.zombies, *z)
	}
	for num, f := range p.FDs.fds {
		cp.fds = append(cp.fds, fdSeal{num: num, flags: f.flags, consoleErr: f.consoleErr})
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
	k := attach(cp.profile, cp.cost, b)
	k.kernelState = cp.kern.clone()
	k.lastCheckpoint = cp.kern.actions
	k.Console = &Console{Out: slices.Clone(cp.consoleOut), Err: slices.Clone(cp.consoleErr)}
	k.Entropy = prng.NewHost(0)
	k.Entropy.SetState(cp.entropyState)
	// The /proc pseudo inodes are not per-boot state (populateProc ran at the
	// original boot and the sealed filesystem carries them).
	k.FS = cp.fsSeal.Resume(k.WallClock, k.Entropy)
	hwPool := prng.NewHost(0)
	hwPool.SetState(cp.hwEntropyState)
	k.HW = cpu.ResumeHW(cp.profile, hwPool, func() int64 { return k.now }, cp.bootTSC)

	p := &Proc{
		procState:    cp.proc.clone(),
		FDs:          newFDTable(),
		futexWaiters: make(map[int64][]*Thread),
		Root:         k.FS.Root,
		Cwd:          k.FS.Root,
	}
	for _, z := range cp.zombies {
		p.zombies = append(p.zombies, &z)
	}
	// Quiescence admits only console descriptors; rebuilding them unshared is
	// faithful because console fds carry no position and their release is a
	// no-op, so dup-sharing is unobservable.
	for _, f := range cp.fds {
		p.FDs.install(f.num, &FD{kind: fdConsole, flags: f.flags, consoleErr: f.consoleErr})
	}
	if p.CwdPath != "" {
		if n, err := k.FS.Resolve(fs.LookupCtx{Root: k.FS.Root, Cwd: k.FS.Root}, p.CwdPath, true); err == abi.OK && n.IsDir() {
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
				Argv: slices.Clone(cp.execArgv),
				Env:  slices.Clone(cp.execEnv),
			}
		}
		t.Syscall(&ev)
		return 127
	})
	t := &Thread{
		TID:         cp.tid,
		Proc:        p,
		threadState: cp.thread.clone(),
		program:     stub,
		k:           k,
	}
	p.Threads = append(p.Threads, t)
	k.startThread(t)
	return k, p, t
}
