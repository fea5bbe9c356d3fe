package kernel

import (
	"maps"
	"slices"

	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/fs"
)

// procState is a process's sealed state (see kernelState for the rule):
// plain data only, so everything that points into the live kernel — inodes,
// the fd table, threads, relatives, signal handlers — stays on Proc.
type procState struct {
	PID  int
	PPID int

	Argv []string
	Env  []string
	Comm string // executable name, for debugging

	UID, GID uint32
	Umask    uint32

	CwdPath string // textual cwd for getcwd and fd-path bookkeeping

	// Address-space surrogates: the program break and mmap region bases are
	// randomized per exec (ASLR) and occasionally leak into build output.
	brk, brkBase      int64
	mmapBase, mmapOff int64

	// Mem is the process's shared-memory surrogate: futex words and other
	// cross-thread flags live here. Threads of one process share it; fork
	// copies it (COW semantics collapsed to a copy at fork time).
	Mem map[int64]int64

	// Trap holds the rdtsc/cpuid interception configuration (§5.8).
	Trap cpu.TrapConfig

	// VdsoReplaced is set when a tracer replaced this process's vDSO with
	// real system calls (§5.3). Cleared on execve: each new image maps a
	// fresh vDSO that the tracer must patch again.
	VdsoReplaced bool

	// VdsoLogical is the §5.3 future-work fast path: the tracer's vDSO
	// replacement answers timing calls directly (logically) instead of
	// downgrading them to intercepted system calls.
	VdsoLogical bool

	// ScratchPage is set once a tracer allocated its per-process page for
	// injected structs (§5.10).
	ScratchPage bool

	// Weight scales statistics and virtual-time costs: one executed action
	// of this process stands for Weight real actions at paper scale.
	Weight int64

	// nextTimeCall backs DetTrace's logical time: a per-process count of
	// time queries (§5.3). Stored here so it survives execve the way the
	// paper's implementation behaves.
	TimeCallCount int64

	// threadBusyUntil is the serialized-thread execution token: under
	// policies that serialize threads (§5.7) at most one thread of the
	// process occupies the CPU at a time. lthreadBusyUntil is its logical
	// mirror.
	threadBusyUntil  int64
	lthreadBusyUntil int64
}

// clone deep-copies the state: every slice and map gets its own backing.
func (s procState) clone() procState {
	s.Argv = slices.Clone(s.Argv)
	s.Env = slices.Clone(s.Env)
	s.Mem = maps.Clone(s.Mem)
	return s
}

// Proc is one process: a PID, an address-space surrogate (shared futex
// words), an fd table, credentials, a filesystem view and a set of threads.
type Proc struct {
	procState

	Root *fs.Inode
	Cwd  *fs.Inode

	FDs *FDTable

	Threads  []*Thread
	parent   *Proc
	children []*Proc
	zombies  []*zombie

	futexWaiters map[int64][]*Thread

	// Signal state. handlers holds the guest's Go handler functions; the
	// kernel consults only their presence when deciding disposition.
	handlers   map[abi.Signal]SignalHandler
	sigPending []abi.Signal

	exited   bool
	exitCode int
}

type zombie struct {
	pid    int
	status abi.WaitStatus
	usage  abi.Rusage
}

// threadState is a thread's sealed state (see kernelState for the rule).
type threadState struct {
	// Clock is the thread's physical virtual time: it includes the host's
	// microarchitectural jitter and is what performance results report.
	Clock int64

	// LClock is the thread's *logical* clock: the same accounting computed
	// with nominal (jitter-free) costs. It is a pure function of the
	// container's logical history, so deterministic policies may order
	// decisions by it — the queue key that lets DetTrace service system
	// calls in (logical) arrival order without consulting host time.
	LClock int64

	// spinCount counts consecutive pure-compute actions while sibling
	// threads are starved — the busy-wait signature (§5.9). Maintained by
	// policies that serialize threads.
	SpinCount int

	// BufCount is the number of records sitting in this thread's tracee-side
	// syscall buffer since the last flush. Maintained by buffering policies
	// (see kernel.SyscallBufferer); the kernel itself never touches it.
	BufCount int
}

// clone copies the state; it holds no slice or map yet, and the guard test
// fails if one is added without a deep copy here.
func (s threadState) clone() threadState { return s }

// Thread is one schedulable context within a process.
type Thread struct {
	TID  int
	Proc *Proc
	threadState

	program     ProgramFn
	pendingExec ProgramFn

	// The hand-off (handoff.go): next switches to the guest coroutine until
	// its next action, stop kills it; out is the guest's side of the same
	// switch and in carries the kernel's answer across it.
	next func() (*yieldMsg, bool)
	stop func()
	out  func(*yieldMsg) bool
	in   resumeMsg
	act  *yieldMsg // the action currently waiting to be processed
	dead bool

	// slotted: t holds a slot in k.pending; waiting: the slot is live, t's
	// action waits to be processed (see Kernel.pending).
	slotted, waiting bool

	eintr      bool  // current blocked syscall was interrupted by a signal
	wakeReady  bool  // explicit wake (futex wake, socket event)
	futexWoken bool  // a FUTEX_WAKE targeted this thread
	sleepUntil int64 // nanosleep deadline, in virtual ns

	// Sched is the reproducible scheduler's bookkeeping for the thread
	// (internal/sched). Like SpinCount it is the policy's to maintain and
	// the kernel never touches it; unlike SpinCount it is not sealed, since
	// the scheduler's own checkpoint seal carries what a resume needs.
	Sched SchedState

	// Event is a reusable syscall record for guest wrappers: each thread has
	// at most one call in flight, so the wrappers (guest.Proc.call) copy
	// their literal into it instead of heap-allocating per call.
	Event abi.Syscall

	// msg is the thread's reusable yield message. Safe for the same reason
	// Event is: one action in flight per thread, and the kernel only reads
	// the message while the thread is blocked in yield.
	msg yieldMsg

	k *Kernel
}

// SchedState is a scheduling policy's per-thread record: the thread's
// virtual TID, whether it has one yet, and whether it sits in the policy's
// Runnable queue.
type SchedState struct {
	VTID       int
	Registered bool
	Runnable   bool
}

// Kernel returns the kernel this thread runs on; used by guest wrappers.
func (t *Thread) Kernel() *Kernel { return t.k }

type yieldKind int

const (
	yieldSyscall yieldKind = iota
	yieldCompute
	yieldInstr
	yieldVdsoTime
	yieldExit
)

type yieldMsg struct {
	kind    yieldKind
	sc      *abi.Syscall
	compute int64 // ns of work
	instr   cpu.Request
	code    int // exit code
	weight  int64
}

type resumeMsg struct {
	exec   bool
	signal abi.Signal // deliver this signal's handler before returning
	instr  cpu.Result
}

// killedPanic unwinds a guest coroutine when its thread is killed.
type killedPanic struct{}

// execPanic unwinds the old program image after a successful execve.
type execPanic struct{}

// newProc allocates a process. parent == nil creates the init process.
func (k *Kernel) newProc(parent *Proc) *Proc {
	p := &Proc{
		procState: procState{
			PID:    k.nextPID,
			UID:    1000 + uint32(k.Entropy.Intn(100)), // host uid of the invoking user
			Umask:  0o022,
			Mem:    make(map[int64]int64),
			Weight: 1,
		},
		FDs:          newFDTable(),
		futexWaiters: make(map[int64][]*Thread),
	}
	k.nextPID++
	if parent != nil {
		p.PPID = parent.PID
		p.parent = parent
		p.UID, p.GID = parent.UID, parent.GID
		p.Umask = parent.Umask
		p.Root, p.Cwd = parent.Root, parent.Cwd
		p.Env = append([]string(nil), parent.Env...)
		p.Weight = parent.Weight
		p.Trap = parent.Trap
		p.VdsoReplaced = parent.VdsoReplaced
		// fork duplicates the address space, layout included.
		p.brk, p.brkBase = parent.brk, parent.brkBase
		p.mmapBase, p.mmapOff = parent.mmapBase, parent.mmapOff
		parent.children = append(parent.children, p)
		// fork copies memory and the fd table.
		for a, v := range parent.Mem {
			p.Mem[a] = v
		}
		p.FDs = parent.FDs.clone()
	} else {
		// The init process inherits the host console on 0/1/2 and a
		// boot-randomized address-space layout.
		p.FDs.install(0, k.newFD(FD{kind: fdConsole}))
		p.FDs.install(1, k.newFD(FD{kind: fdConsole}))
		p.FDs.install(2, k.newFD(FD{kind: fdConsole, consoleErr: true}))
		p.brkBase = 0x5000_0000 + k.Entropy.Int63n(1<<30)&^4095
		p.mmapBase = 0x7f00_0000_0000 + k.Entropy.Int63n(1<<36)&^4095
	}
	k.procs[p.PID] = p
	return p
}

func (k *Kernel) newThread(p *Proc, fn ProgramFn) *Thread {
	t := &Thread{
		TID:     p.PID*64 + len(p.Threads), // unique, deterministic per spawn order
		Proc:    p,
		program: fn,
		k:       k,
	}
	if len(p.Threads) > 0 {
		t.Clock = p.Threads[0].Clock
		t.LClock = p.Threads[0].LClock
	}
	p.Threads = append(p.Threads, t)
	return t
}

// --- guest-facing action entry points (used by package guest) --------------

// Syscall issues a system call and blocks until it completes. The returned
// Syscall carries the result in Ret and any out parameters in Buf/Obj.
//
// The first branch is the in-tracee fast path: if the attached policy keeps
// a syscall buffer and claims this call, it is serviced right here on the
// guest coroutine — no yield, no kernel-loop round trip, no stop. The
// lockstep model makes this safe: the kernel loop is suspended until this
// thread's next yield, so the policy has exclusive access to shared
// state. The guards keep the slow path authoritative whenever the kernel
// might need control: before the thread's first yield completes (t.act is
// still nil while the policy's OnSpawn bookkeeping may be pending),
// whenever a signal awaits delivery, and once the thread is dead (yield then
// re-panics: a killed guest's deferred calls touch nothing).
func (t *Thread) Syscall(sc *abi.Syscall) *abi.Syscall {
	if fp := t.k.fastPath; fp != nil && t.act != nil && !t.dead && len(t.Proc.sigPending) == 0 &&
		fp.BufferSyscall(t, sc) {
		w := t.Proc.Weight
		t.k.Stats.Syscalls += w
		t.k.Stats.SyscallsRaw++
		t.k.countSyscall(sc.Num, w)
		return sc
	}
	t.msg = yieldMsg{kind: yieldSyscall, sc: sc}
	r := t.yield(&t.msg)
	if r.signal != 0 {
		// The handler may issue syscalls of its own; if sc is the thread's
		// reusable Event they would clobber this call's results before the
		// wrapper reads them.
		saved := *sc
		t.runSignal(r.signal)
		*sc = saved
	}
	return sc
}

// Compute burns d nanoseconds of CPU across the machine's cores.
func (t *Thread) Compute(d int64) {
	if d <= 0 {
		return
	}
	t.msg = yieldMsg{kind: yieldCompute, compute: d}
	r := t.yield(&t.msg)
	t.runSignal(r.signal)
}

// Instr executes one special CPU instruction.
func (t *Thread) Instr(req cpu.Request) cpu.Result {
	t.msg = yieldMsg{kind: yieldInstr, instr: req}
	r := t.yield(&t.msg)
	t.runSignal(r.signal)
	return r.instr
}

// VdsoTime reads the wall clock through the vDSO fast path — *not* a system
// call, and therefore invisible to ptrace-style interception (§5.3). A
// tracer may have replaced this process's vDSO: with a stub that downgrades
// to a real clock_gettime system call, or (the fast variant) one that
// answers logically in user space.
func (t *Thread) VdsoTime() int64 {
	if t.Proc.VdsoReplaced && !t.Proc.VdsoLogical {
		var ts abi.Timespec
		t.Event = abi.Syscall{Num: abi.SysClockGettime, Obj: &ts}
		t.Syscall(&t.Event)
		return ts.Nanos()
	}
	t.msg = yieldMsg{kind: yieldVdsoTime}
	r := t.yield(&t.msg)
	t.runSignal(r.signal)
	return int64(r.instr.Value)
}

// SignalHandler is a guest-side signal handler function. The kernel tracks
// only that a handler is registered; the function itself runs on the guest
// goroutine when the kernel requests delivery.
type SignalHandler func(t *Thread, sig abi.Signal)

// SetHandler registers a guest signal handler (the guest side of
// rt_sigaction; the kernel side tracks only that a handler exists).
func (t *Thread) SetHandler(sig abi.Signal, fn SignalHandler) {
	p := t.Proc
	if p.handlers == nil {
		p.handlers = make(map[abi.Signal]SignalHandler)
	}
	if fn == nil {
		delete(p.handlers, sig)
	} else {
		p.handlers[sig] = fn
	}
}

// runSignal invokes the guest handler for sig, if the resume asked for one.
func (t *Thread) runSignal(sig abi.Signal) {
	if sig == 0 {
		return
	}
	if fn := t.Proc.handlers[sig]; fn != nil {
		fn(t, sig)
	}
}

// --- process teardown -------------------------------------------------------

// finishThread handles a thread's exit action. When the last thread exits,
// the process dies: fds close, children are reparented to init, the parent
// gets a zombie and a SIGCHLD. The exit action is the last of the thread's
// sequence, so the closing resume ends it.
func (k *Kernel) finishThread(t *Thread, code int) {
	t.dead = true
	k.removePending(t)
	p := t.Proc
	live := 0
	for _, th := range p.Threads {
		if !th.dead {
			live++
		}
	}
	k.Policy.OnExit(t)
	if live > 0 {
		k.resume(t, resumeMsg{})
		return
	}
	p.exited = true
	p.exitCode = code
	p.FDs.closeAll(k)
	// Reparent children to init (pid of the first process).
	for _, c := range p.children {
		if !c.exited {
			c.parent = nil
		}
	}
	if parent := p.parent; parent != nil && !parent.exited {
		parent.zombies = append(parent.zombies, &zombie{
			pid:    p.PID,
			status: abi.ExitStatus(code),
			usage:  abi.Rusage{UserNanos: t.Clock},
		})
		k.postSignal(parent, abi.SIGCHLD)
	}
	delete(k.procs, p.PID)
	k.resume(t, resumeMsg{})
}

// exitGroup kills every other thread in the process, then exits this one.
func (k *Kernel) exitGroup(t *Thread, code int) {
	for _, th := range t.Proc.Threads {
		if th != t && !th.dead {
			k.removePending(th)
			k.removeBlocked(th)
			k.killThread(th)
		}
	}
	k.finishThread(t, code)
}

func (k *Kernel) removeBlocked(t *Thread) {
	for i, b := range k.kblocked {
		if b == t {
			k.kblocked = append(k.kblocked[:i], k.kblocked[i+1:]...)
			return
		}
	}
	for i, b := range k.parked {
		if b == t {
			k.parked = append(k.parked[:i], k.parked[i+1:]...)
			return
		}
	}
}
