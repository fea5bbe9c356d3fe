package guest

import (
	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/kernel"
)

// --- time ----------------------------------------------------------------------

// Time returns wall-clock seconds via the time system call.
func (p *Proc) Time() int64 {
	sc := p.call(&abi.Syscall{Num: abi.SysTime})
	return sc.Ret
}

// ClockGettime returns the wall clock as a Timespec via a real system call.
func (p *Proc) ClockGettime() abi.Timespec {
	ts, _ := callObj(p, &p.objs().ts, abi.Timespec{}, abi.Syscall{Num: abi.SysClockGettime})
	return ts
}

// Gettimeofday returns wall-clock nanoseconds via a real system call.
func (p *Proc) Gettimeofday() int64 {
	ts, _ := callObj(p, &p.objs().ts, abi.Timespec{}, abi.Syscall{Num: abi.SysGettimeofday})
	return ts.Nanos()
}

// VdsoNow returns wall-clock nanoseconds through the vDSO fast path — the
// library-call route that ptrace cannot see (§5.3). libc-style code (e.g.
// mkstemp) uses this even in statically linked binaries.
func (p *Proc) VdsoNow() int64 { return p.T.VdsoTime() }

// Nanosleep blocks for the given duration.
func (p *Proc) Nanosleep(ns int64) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysNanosleep, Arg: [6]int64{ns}}))
	return e
}

// Alarm arms a SIGALRM timer in whole seconds.
func (p *Proc) Alarm(seconds int64) {
	p.call(&abi.Syscall{Num: abi.SysAlarm, Arg: [6]int64{seconds}})
}

// Setitimer arms an interval timer delivering SIGVTALRM.
func (p *Proc) Setitimer(value, interval int64) {
	callObj(p, &p.objs().itimer, abi.Itimerval{Value: value, Interval: interval}, abi.Syscall{Num: abi.SysSetitimer})
}

// Pause blocks until a signal is delivered.
func (p *Proc) Pause() abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysPause}))
	return e
}

// --- randomness -------------------------------------------------------------------

// GetRandom fills buf from the kernel entropy source (getrandom).
func (p *Proc) GetRandom(buf []byte) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysGetrandom, Buf: buf}))
	return e
}

// --- identity ------------------------------------------------------------------

// Getpid returns the process id as the process sees it.
func (p *Proc) Getpid() int {
	sc := p.call(&abi.Syscall{Num: abi.SysGetpid})
	return int(sc.Ret)
}

// Getppid returns the parent pid.
func (p *Proc) Getppid() int {
	sc := p.call(&abi.Syscall{Num: abi.SysGetppid})
	return int(sc.Ret)
}

// Gettid returns the calling thread's id.
func (p *Proc) Gettid() int {
	sc := p.call(&abi.Syscall{Num: abi.SysGetTid})
	return int(sc.Ret)
}

// Getuid returns the effective uid.
func (p *Proc) Getuid() int {
	sc := p.call(&abi.Syscall{Num: abi.SysGetuid})
	return int(sc.Ret)
}

// Getgid returns the effective gid.
func (p *Proc) Getgid() int {
	sc := p.call(&abi.Syscall{Num: abi.SysGetgid})
	return int(sc.Ret)
}

// Setuid switches identity (the container's first process starts as root).
func (p *Proc) Setuid(uid uint32) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysSetuid, Arg: [6]int64{int64(uid)}}))
	return e
}

// Umask sets the file-creation mask and returns the previous one.
func (p *Proc) Umask(mask uint32) uint32 {
	sc := p.call(&abi.Syscall{Num: abi.SysUmask, Arg: [6]int64{int64(mask)}})
	return uint32(sc.Ret)
}

// Uname returns machine identification.
func (p *Proc) Uname() abi.Utsname {
	u, _ := callObj(p, &p.objs().uts, abi.Utsname{}, abi.Syscall{Num: abi.SysUname})
	return u
}

// Sysinfo returns system statistics (core counts leak here natively).
func (p *Proc) Sysinfo() abi.Sysinfo {
	si, _ := callObj(p, &p.objs().sysinfo, abi.Sysinfo{}, abi.Syscall{Num: abi.SysSysinfo})
	return si
}

// --- processes and threads -------------------------------------------------------

// Fork creates a child process running child. It returns the child pid in
// the parent. (The Go-function model means the "copied image" is the child
// closure; captured variables are snapshotted by value only if the guest
// takes care to copy them.)
func (p *Proc) Fork(child Program) (int, abi.Errno) {
	fn := kernel.ProgramFn(func(t *kernel.Thread) int {
		return run(child, &Proc{T: t, Image: p.Image})
	})
	sc := p.call(&abi.Syscall{Num: abi.SysFork, Obj: fn})
	n, e := ret(sc)
	return int(n), e
}

// CloneThread starts a new thread in this process, returning its tid.
func (p *Proc) CloneThread(body Program) (int, abi.Errno) {
	fn := kernel.ProgramFn(func(t *kernel.Thread) int {
		return run(body, &Proc{T: t, Image: p.Image})
	})
	sc := p.call(&abi.Syscall{
		Num: abi.SysClone,
		Arg: [6]int64{abi.CloneThread | abi.CloneVM | abi.CloneFiles},
		Obj: fn,
	})
	n, e := ret(sc)
	return int(n), e
}

// Exec replaces the process image. On success it does not return.
func (p *Proc) Exec(path string, argv, env []string) abi.Errno {
	sc := p.call(&abi.Syscall{Num: abi.SysExecve, Path: path, Obj: &kernel.ExecArgs{Argv: argv, Env: env}})
	_, e := ret(sc)
	return e // only reached on failure
}

// Spawn is the fork+exec idiom: run path with argv/env as a child process.
// The child inherits this process's environment when env is nil.
func (p *Proc) Spawn(path string, argv, env []string) (int, abi.Errno) {
	return p.Fork(func(c *Proc) int {
		if err := c.Exec(path, argv, env); err != abi.OK {
			c.Eprintf("exec %s: %s\n", path, err)
			return 127
		}
		return 127 // unreachable
	})
}

// Wait blocks for any child to exit.
func (p *Proc) Wait() (kernel.WaitResult, abi.Errno) {
	return p.Waitpid(-1, 0)
}

// Waitpid blocks for a specific child (or any, with pid -1).
func (p *Proc) Waitpid(pid int, options int64) (kernel.WaitResult, abi.Errno) {
	return callObj(p, &p.objs().wait, kernel.WaitResult{}, abi.Syscall{Num: abi.SysWait4, Arg: [6]int64{int64(pid), options}})
}

// Kill sends a signal to a process.
func (p *Proc) Kill(pid int, sig abi.Signal) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysKill, Arg: [6]int64{int64(pid), int64(sig)}}))
	return e
}

// Signal installs a handler for sig. Passing nil restores the default.
func (p *Proc) Signal(sig abi.Signal, handler func(p *Proc, sig abi.Signal)) {
	if handler == nil {
		p.T.SetHandler(sig, nil)
	} else {
		p.T.SetHandler(sig, func(t *kernel.Thread, s abi.Signal) {
			handler(&Proc{T: t, Image: p.Image}, s)
		})
	}
	hasHandler := int64(0)
	if handler != nil {
		hasHandler = 1
	}
	p.call(&abi.Syscall{Num: abi.SysRtSigaction, Arg: [6]int64{int64(sig), hasHandler}})
}

// SchedYield relinquishes the CPU.
func (p *Proc) SchedYield() {
	p.call(&abi.Syscall{Num: abi.SysSchedYield})
}

// --- shared memory and futexes ------------------------------------------------------

// Load reads a shared-memory word. Words are shared among threads of the
// process and copied at fork.
func (p *Proc) Load(addr int64) int64 { return p.T.Proc.Mem[addr] }

// Store writes a shared-memory word.
func (p *Proc) Store(addr, val int64) { p.T.Proc.Mem[addr] = val }

// Add atomically adds to a shared word, returning the new value. (All guest
// code is mutually excluded, so plain read-modify-write is atomic.)
func (p *Proc) Add(addr, delta int64) int64 {
	p.T.Proc.Mem[addr] += delta
	return p.T.Proc.Mem[addr]
}

// FutexWait blocks while *addr == val (the fast-path failure of a lock).
func (p *Proc) FutexWait(addr, val int64) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysFutex, Arg: [6]int64{addr, abi.FutexWait, val}}))
	return e
}

// FutexWake wakes up to n waiters on addr, returning the count woken.
func (p *Proc) FutexWake(addr, n int64) int {
	sc := p.call(&abi.Syscall{Num: abi.SysFutex, Arg: [6]int64{addr, abi.FutexWake, n}})
	return int(sc.Ret)
}

// --- memory --------------------------------------------------------------------------

// Mmap reserves an anonymous mapping and returns its address — an ASLR
// accident that irreproducible builds sometimes embed.
func (p *Proc) Mmap(size int64) int64 {
	sc := p.call(&abi.Syscall{Num: abi.SysMmap, Arg: [6]int64{size}})
	return sc.Ret
}

// Brk grows the heap by incr and returns the new break.
func (p *Proc) Brk(incr int64) int64 {
	sc := p.call(&abi.Syscall{Num: abi.SysBrk, Arg: [6]int64{incr}})
	return sc.Ret
}

// --- compute and instructions ----------------------------------------------------------

// Compute burns ns nanoseconds of CPU time on one core.
func (p *Proc) Compute(ns int64) { p.T.Compute(ns) }

// Work burns ns nanoseconds scaled by the process weight: when one executed
// action stands for Weight real ones, its compute must scale the same way.
func (p *Proc) Work(ns int64) { p.T.Compute(ns * p.T.Proc.Weight) }

// Rdtsc reads the time-stamp counter.
func (p *Proc) Rdtsc() uint64 {
	return p.T.Instr(cpu.Request{Instr: cpu.RDTSC}).Value
}

// Rdtscp reads the time-stamp counter (serializing variant).
func (p *Proc) Rdtscp() uint64 {
	return p.T.Instr(cpu.Request{Instr: cpu.RDTSCP}).Value
}

// Cpuid queries a cpuid leaf.
func (p *Proc) Cpuid(leaf uint32) cpu.Result {
	return p.T.Instr(cpu.Request{Instr: cpu.CPUID, Leaf: leaf})
}

// Rdrand draws hardware entropy; ok mirrors the carry flag.
func (p *Proc) Rdrand() (uint64, bool) {
	r := p.T.Instr(cpu.Request{Instr: cpu.RDRAND})
	return r.Value, r.OK
}

// Rdseed draws hardware entropy from the conditioner.
func (p *Proc) Rdseed() (uint64, bool) {
	r := p.T.Instr(cpu.Request{Instr: cpu.RDSEED})
	return r.Value, r.OK
}

// Xbegin attempts a TSX transaction; ok reports commit. Abort timing is the
// paper's one untrappable nondeterminism source (§4).
func (p *Proc) Xbegin() bool {
	return p.T.Instr(cpu.Request{Instr: cpu.XBEGIN}).OK
}

// Fetch retrieves a declared external file by URL (the checksummed-download
// extension). Outside DetTrace the kernel has no network and returns ENOSYS.
func (p *Proc) Fetch(url string) ([]byte, abi.Errno) {
	out, e := callObj(p, &p.objs().bytes, nil, abi.Syscall{Num: abi.SysFetch, Path: url})
	if e != abi.OK {
		return nil, e
	}
	return out, abi.OK
}

// --- sockets (container-internal IPC; DetTrace aborts unless the
// experimental mode is enabled) ----------------------------------------------------------

// Socket creates an AF_UNIX stream socket.
func (p *Proc) Socket() (int, abi.Errno) {
	sc := p.call(&abi.Syscall{Num: abi.SysSocket})
	n, e := ret(sc)
	return int(n), e
}

// Bind names a socket with a filesystem path.
func (p *Proc) Bind(fd int, path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysBind, Arg: [6]int64{int64(fd)}, Path: path}))
	return e
}

// Listen marks a bound socket as accepting.
func (p *Proc) Listen(fd int) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysListen, Arg: [6]int64{int64(fd)}}))
	return e
}

// Connect connects to a listening socket by path.
func (p *Proc) Connect(fd int, path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysConnect, Arg: [6]int64{int64(fd)}, Path: path}))
	return e
}

// Accept takes the next pending connection.
func (p *Proc) Accept(fd int) (int, abi.Errno) {
	sc := p.call(&abi.Syscall{Num: abi.SysAccept, Arg: [6]int64{int64(fd)}})
	n, e := ret(sc)
	return int(n), e
}

// Send writes to a connected socket.
func (p *Proc) Send(fd int, buf []byte) (int, abi.Errno) {
	sc := p.call(&abi.Syscall{Num: abi.SysSendto, Arg: [6]int64{int64(fd)}, Buf: buf})
	n, e := ret(sc)
	return int(n), e
}

// Recv reads from a connected socket.
func (p *Proc) Recv(fd int, buf []byte) (int, abi.Errno) {
	sc := p.call(&abi.Syscall{Num: abi.SysRecvfrom, Arg: [6]int64{int64(fd)}, Buf: buf})
	n, e := ret(sc)
	return int(n), e
}
