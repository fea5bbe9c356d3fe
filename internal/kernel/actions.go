package kernel

import (
	"repro/internal/abi"
	"repro/internal/cpu"
)

// processAction handles the pending action of t. On entry t is removed from
// every scheduling set; depending on the outcome it lands back in pending
// (action completed, next action received), in kblocked (kernel blocking
// semantics) or in parked (policy blocking semantics).
func (k *Kernel) processAction(t *Thread) {
	k.removePending(t)
	k.removeBlocked(t)
	act := t.act
	switch act.kind {
	case yieldCompute:
		k.runCompute(t, act)
	case yieldVdsoTime:
		k.runVdsoTime(t, act)
	case yieldInstr:
		k.runInstr(t, act)
	case yieldExit:
		if t == t.Proc.Threads[0] {
			// Returning from main is exit_group: every thread dies.
			k.exitGroup(t, act.code)
		} else {
			k.finishThread(t, act.code)
		}
	case yieldSyscall:
		k.runSyscall(t, act)
	}
}

// resumeWithSignals delivers any pending signal disposition before resuming:
// a handler request rides along in the resume message; a lethal default
// kills the process instead of resuming.
func (k *Kernel) resumeWithSignals(t *Thread, m resumeMsg) {
	sig, killed := k.takePendingSignal(t)
	if killed {
		return
	}
	m.signal = sig
	k.resume(t, m)
}

func (k *Kernel) runCompute(t *Thread, act *yieldMsg) {
	d := act.compute
	jd := d
	if j := k.Cost.ComputeJitterPPM; j > 0 && d > 0 {
		jd += d * (k.Entropy.Int63n(2*j+1) - j) / 1_000_000
	}
	serialized := k.threadsSerialized()
	// Workspace mode (ISSUE 7) splits the two clocks: a thread running in a
	// private workspace overlaps its burst with siblings on the physical
	// clock, while the logical clock stays token-serialized so every
	// ordering decision — and every guest-visible byte — is unchanged.
	physSerialized := serialized
	if serialized && k.wsched != nil && k.wsched.ComputeConcurrent(t) {
		physSerialized = false
	}
	t.Clock = scheduleBurst(t.Clock, jd, k.cores, &t.Proc.threadBusyUntil, physSerialized, len(t.Proc.Threads))
	t.LClock = scheduleBurst(t.LClock, d, k.lcores, &t.Proc.lthreadBusyUntil, serialized, len(t.Proc.Threads))
	k.advanceGlobal(t.Clock)
	k.advanceLogical(t.LClock)
	k.resumeWithSignals(t, resumeMsg{})
}

// scheduleBurst list-schedules a compute burst onto the least-loaded core,
// honouring the serialized-thread token, and returns the completion time.
func scheduleBurst(clock, d int64, cores []int64, token *int64, serialized bool, nthreads int) int64 {
	start := clock
	core := 0
	for i := 1; i < len(cores); i++ {
		if cores[i] < cores[core] {
			core = i
		}
	}
	if cores[core] > start {
		start = cores[core]
	}
	if serialized && nthreads > 1 && *token > start {
		start = *token
	}
	end := start + d
	cores[core] = end
	if serialized {
		*token = end
	}
	return end
}

func (k *Kernel) runVdsoTime(t *Thread, act *yieldMsg) {
	t.Clock += k.Cost.VdsoCost
	t.LClock += k.Cost.VdsoCost
	k.advanceGlobal(t.Clock)
	k.Stats.VdsoCalls += act.weight
	v := k.epoch*1e9 + t.Clock // the raw vvar data: host wall time
	if t.Proc.VdsoLogical {
		// The tracer's patched vDSO answers directly, without a stop.
		if vp, ok := k.Policy.(VdsoProvider); ok {
			v = vp.VdsoTime(t)
		}
	}
	k.resumeWithSignals(t, resumeMsg{instr: cpu.Result{Value: uint64(v)}})
}

func (k *Kernel) runInstr(t *Thread, act *yieldMsg) {
	w := act.weight
	k.Stats.Instrs += w
	var res cpu.Result
	if k.HW.Traps(act.instr, t.Proc.Trap) {
		// The instruction faults; the tracer emulates it. Tracer work is
		// serialized like any other tracer activity.
		// The policy returns weight-scaled cost, like its syscall hooks.
		r, handled, cost := k.Policy.Instr(t, act.instr)
		if handled {
			res = r
			res.Trapped = true
			k.serializeTracer(t, cost)
			switch act.instr.Instr {
			case cpu.RDTSC, cpu.RDTSCP:
				k.Stats.RdtscTrapped += w
			case cpu.CPUID:
				k.Stats.CpuidTrapped += w
			}
			k.advanceGlobal(t.Clock)
			k.resumeWithSignals(t, resumeMsg{instr: res})
			return
		}
	}
	res = k.HW.Execute(act.instr)
	t.Clock += k.Cost.InstrCost * w
	t.LClock += k.Cost.InstrCost * w
	k.advanceGlobal(t.Clock)
	k.resumeWithSignals(t, resumeMsg{instr: res})
}

// serializeTracer charges cost to both the thread and the single tracer
// timeline: the thread cannot proceed until the tracer gets to it, and the
// tracer cannot serve anyone else meanwhile. This is the mechanism that
// makes DetTrace overhead proportional to system call rate (Fig. 5) and
// throttles syscall-heavy parallel workloads (Fig. 6).
func (k *Kernel) serializeTracer(t *Thread, cost int64) {
	var start int64
	if k.tracerConcurrent(t) {
		start = k.tracerServe(t.Clock, cost)
	} else {
		start = t.Clock
		if k.tracerBusy > start {
			start = k.tracerBusy
		}
		k.tracerBusy = start + cost
	}
	k.Stats.TracerBusy += cost
	t.Clock = start + cost

	lstart := t.LClock
	if k.ltracerBusy > lstart {
		lstart = k.ltracerBusy
	}
	k.ltracerBusy = lstart + cost
	t.LClock = lstart + cost
}

// tracerConcurrent reports whether t's stop may fill tracer-timeline gaps:
// workspace mode is on and t has live siblings. Single-threaded processes
// keep the plain high-water mark, so every pre-workspace workload's physics
// is untouched.
func (k *Kernel) tracerConcurrent(t *Thread) bool {
	if k.wsched == nil || !k.wsched.WorkspacesEnabled() {
		return false
	}
	live := 0
	for _, sib := range t.Proc.Threads {
		if !sib.Dead() {
			if live++; live > 1 {
				return true
			}
		}
	}
	return false
}

// tracerGap is a free interval [start, end) on the physical tracer timeline.
type tracerGap struct{ start, end int64 }

// tracerServe allocates a cost-long slot for a stop that physically arrived
// at arrival, first-fit into an earlier recorded gap when one is wide
// enough. The kernel loop services stops in logical order, but under
// workspace mode siblings reach the tracer at arbitrary physical times, so
// the plain high-water mark would charge an early arrival a start after a
// logically-earlier sibling's late burst — staggering thread spawns by whole
// compute phases. Filling gaps restores arrival-order physics; the logical
// timeline (and therefore every ordering decision) is untouched.
func (k *Kernel) tracerServe(arrival, cost int64) int64 {
	for i := range k.tracerGaps {
		g := k.tracerGaps[i]
		s := g.start
		if arrival > s {
			s = arrival
		}
		if s+cost > g.end {
			continue
		}
		rest := append([]tracerGap(nil), k.tracerGaps[i+1:]...)
		out := k.tracerGaps[:i]
		if s > g.start {
			out = append(out, tracerGap{g.start, s})
		}
		if s+cost < g.end {
			out = append(out, tracerGap{s + cost, g.end})
		}
		k.tracerGaps = append(out, rest...)
		return s
	}
	start := arrival
	if k.tracerBusy > start {
		start = k.tracerBusy
	}
	if start > k.tracerBusy && len(k.tracerGaps) < 64 {
		k.tracerGaps = append(k.tracerGaps, tracerGap{k.tracerBusy, start})
	}
	k.tracerBusy = start + cost
	return start
}

func (k *Kernel) threadsSerialized() bool {
	ts, ok := k.Policy.(interface{ ThreadsSerialized() bool })
	return ok && ts.ThreadsSerialized()
}

// runSyscall drives one system call through the policy's pre-stop, the
// kernel implementation (with retry and blocking), and the post-stop.
func (k *Kernel) runSyscall(t *Thread, act *yieldMsg) {
	sc := act.sc
	w := act.weight
	if sc.Attempts == 0 && !sc.Injected {
		k.Stats.Syscalls += w
		k.Stats.SyscallsRaw++
		k.countSyscall(sc.Num, w)
	}
	er := k.Policy.SyscallEnter(t, sc)
	if er.Disposition == DispAbort {
		if k.debugf != nil {
			k.debugf("%s %s: container abort: %v", fmtPID(t.Proc), sc.Num, er.AbortErr)
		}
		k.Abort(er.AbortErr)
		return
	}

	var moved int64
	var postCost int64
	for {
		var blocked bool
		if er.Disposition == DispEmulate {
			blocked = false
		} else {
			blocked = k.execSyscall(t, sc)
		}
		if blocked {
			sc.Attempts++
			if k.Policy.WouldBlock(t, sc) {
				// Policy blocking: the DetTrace Blocked queue. The first
				// park is not a replay; each re-dispatch that still blocks
				// is (§5.6.1), and costs a tracer round trip.
				if sc.Attempts > 1 {
					k.Stats.BlockedReplays += w
				}
				k.serializeTracer(t, k.Cost.BlockPoll+er.PreCost)
				k.advanceGlobal(t.Clock)
				k.parked = append(k.parked, t)
				return
			}
			// Kernel blocking: sleep until the condition fires.
			k.kblocked = append(k.kblocked, t)
			return
		}
		if sc.Ret > 0 && (sc.Num == abi.SysRead || sc.Num == abi.SysWrite) {
			moved += sc.Ret
		}
		// The call completed: consume any explicit wake that targeted it.
		t.wakeReady = false
		xr := k.Policy.SyscallExit(t, sc)
		postCost += xr.PostCost
		if !xr.Retry {
			break
		}
		sc.Attempts++
	}

	// Charge virtual time: tracee-side stall runs on the process's own
	// core; tracer-side service serializes.
	dur := k.entryCost(moved, w)
	if er.Serialize {
		t.Clock += er.LocalCost
		t.LClock += er.LocalCost
		k.serializeTracer(t, er.PreCost+dur+er.PostCost+postCost)
	} else {
		t.Clock += dur + er.LocalCost
		t.LClock += dur + er.LocalCost
	}
	k.advanceGlobal(t.Clock)
	k.advanceLogical(t.LClock)
	if k.debugf != nil { // the arguments alone cost a Sprintf and seven boxes per syscall
		k.debugf("%s.t%d %s(%d,...) = %d @%.3fs tracer=%.3fs", fmtPID(t.Proc), t.TID, sc.Num, sc.Arg[0], sc.Ret, float64(t.Clock)/1e9, float64(k.tracerBusy)/1e9)
	}

	// execve success unwinds the old image instead of returning.
	if sc.Num == abi.SysExecve && sc.Err() == abi.OK {
		k.resume(t, resumeMsg{exec: true})
		return
	}
	if t.eintr {
		t.eintr = false
	}
	k.resumeWithSignals(t, resumeMsg{})
}

// entryCost is the kernel's own charge for one system call of weight w that
// moved the given number of bytes: the entry cost plus the data-copy term.
func (k *Kernel) entryCost(moved, w int64) int64 {
	return (k.Cost.SyscallBase + k.Cost.SyscallPerKB*(moved/1024)) * w
}

// DirectCost is entryCost for a call ExecDirect serviced to completion: a
// read or write is charged the bytes its final result reports.
func (k *Kernel) DirectCost(sc *abi.Syscall, w int64) int64 {
	var moved int64
	if sc.Ret > 0 && (sc.Num == abi.SysRead || sc.Num == abi.SysWrite) {
		moved = sc.Ret
	}
	return k.entryCost(moved, w)
}

// ExecDirect runs sc's kernel service routine immediately on the caller's
// goroutine, bypassing the scheduler. It exists for SyscallBufferer
// implementations servicing buffered calls guest-side; lockstep makes the
// direct call safe. The call must be non-blocking — buffer verdicts are only
// given to calls that cannot block, so blocking here is a filter bug.
func (k *Kernel) ExecDirect(t *Thread, sc *abi.Syscall) {
	if k.execSyscall(t, sc) {
		panic("kernel: ExecDirect called on a blocking syscall: " + sc.Num.String())
	}
}

// takePendingSignal pops the next deliverable signal for t's process.
// Handled signals are returned for guest delivery; ignorable defaults are
// dropped; lethal defaults kill the process (killed=true means t is gone —
// do not resume it).
func (k *Kernel) takePendingSignal(t *Thread) (abi.Signal, bool) {
	p := t.Proc
	for len(p.sigPending) > 0 {
		s := p.sigPending[0]
		p.sigPending = p.sigPending[1:]
		if p.handlers[s] != nil && s != abi.SIGKILL {
			return s, false
		}
		switch s {
		case abi.SIGCHLD:
			continue // default: ignore
		default:
			k.killProcess(t, s)
			return 0, true
		}
	}
	return 0, false
}

// killProcess terminates t's whole process with a signal status. t's own
// coroutine is stopped too; callers must not resume t afterwards.
func (k *Kernel) killProcess(t *Thread, sig abi.Signal) {
	p := t.Proc
	if k.debugf != nil {
		k.debugf("%s killed by %s", fmtPID(p), sig)
	}
	for _, th := range p.Threads {
		if !th.dead {
			k.removePending(th)
			k.removeBlocked(th)
			k.killThread(th)
		}
	}
	k.teardownProc(p, abi.SignalStatus(sig), t.Clock)
}

// teardownProc performs the shared process-death bookkeeping.
func (k *Kernel) teardownProc(p *Proc, status abi.WaitStatus, clock int64) {
	if p.exited {
		return
	}
	p.exited = true
	p.FDs.closeAll(k)
	for _, c := range p.children {
		if !c.exited {
			c.parent = nil
		}
	}
	if parent := p.parent; parent != nil && !parent.exited {
		parent.zombies = append(parent.zombies, &zombie{
			pid:    p.PID,
			status: status,
			usage:  abi.Rusage{UserNanos: clock},
		})
		k.postSignal(parent, abi.SIGCHLD)
	}
	delete(k.procs, p.PID)
}

// postSignal queues sig for p and interrupts one blocked thread so slow
// syscalls return EINTR (§5.4 semantics).
func (k *Kernel) postSignal(p *Proc, sig abi.Signal) {
	if p.exited {
		return
	}
	k.Stats.SignalsSent += p.Weight
	// Signals whose disposition is "ignore" are discarded immediately and
	// never interrupt a blocked call, matching Linux semantics.
	if p.handlers[sig] == nil && sig == abi.SIGCHLD {
		return
	}
	p.sigPending = append(p.sigPending, sig)
	for i, t := range k.kblocked {
		if t.Proc == p {
			k.kblocked = append(k.kblocked[:i], k.kblocked[i+1:]...)
			t.eintr = true
			if t.Clock < k.now {
				t.Clock = k.now
			}
			if t.LClock < k.lnow {
				t.LClock = k.lnow
			}
			t.act.sc.SetErrno(abi.EINTR)
			k.finishInterrupted(t)
			break
		}
	}
}

// finishInterrupted completes a blocked syscall with the EINTR already set
// on it, running exit hooks and resuming the guest (which will run any
// handler before seeing the error).
func (k *Kernel) finishInterrupted(t *Thread) {
	sc := t.act.sc
	k.Policy.SyscallExit(t, sc)
	t.Clock += k.Cost.SyscallBase
	t.LClock += k.Cost.SyscallBase
	k.advanceGlobal(t.Clock)
	k.resumeWithSignals(t, resumeMsg{})
}

// wakeKernelBlocked re-runs blocked syscalls whose conditions now hold.
func (k *Kernel) wakeKernelBlocked() {
	for changed := true; changed; {
		changed = false
		for i, t := range k.kblocked {
			if t.wakeReady || k.syscallReady(t, t.act.sc) {
				k.kblocked = append(k.kblocked[:i], k.kblocked[i+1:]...)
				t.wakeReady = false
				if t.Clock < k.now {
					t.Clock = k.now
				}
				if t.LClock < k.lnow {
					t.LClock = k.lnow
				}
				// Back to pending: the policy reschedules the retried call.
				k.pending = append(k.pending, t)
				changed = true
				break
			}
		}
	}
}

// syscallReady reports whether a kernel-blocked syscall can now complete.
// It mirrors the blocking conditions in execSyscall without side effects.
func (k *Kernel) syscallReady(t *Thread, sc *abi.Syscall) bool {
	switch sc.Num {
	case abi.SysRead:
		f, err := t.Proc.FDs.get(int(sc.Arg[0]))
		if err != abi.OK {
			return true // will fail with EBADF, but that's completion
		}
		switch f.kind {
		case fdPipeR:
			return f.pipe.Buffered() > 0 || !f.pipe.HasWriters()
		case fdSocket:
			return f.sock.readable()
		}
		return true
	case abi.SysWrite:
		f, err := t.Proc.FDs.get(int(sc.Arg[0]))
		if err != abi.OK {
			return true
		}
		switch f.kind {
		case fdPipeW:
			return f.pipe.Space() > 0 || !f.pipe.HasReaders()
		case fdSocket:
			return f.sock.writable()
		}
		return true
	case abi.SysWait4:
		p := t.Proc
		if len(p.zombies) > 0 {
			return true
		}
		return !p.hasLiveChildren()
	case abi.SysNanosleep:
		return k.now >= t.sleepUntil
	case abi.SysPause:
		return t.wakeReady || len(t.Proc.sigPending) > 0
	case abi.SysFutex:
		// Ready when explicitly woken, or when the word changed (the wait
		// would now fail with EAGAIN, which is completion).
		return t.wakeReady || t.Proc.Mem[sc.Arg[0]] != sc.Arg[2]
	case abi.SysAccept, abi.SysAccept4:
		f, err := t.Proc.FDs.get(int(sc.Arg[0]))
		return err != abi.OK || f.sock.acceptable()
	case abi.SysRecvfrom:
		f, err := t.Proc.FDs.get(int(sc.Arg[0]))
		return err != abi.OK || f.sock.readable()
	case abi.SysConnect:
		return t.wakeReady
	}
	return true
}

// hasLiveChildren reports whether any child process is still running.
func (p *Proc) hasLiveChildren() bool {
	for _, c := range p.children {
		if !c.exited {
			return true
		}
	}
	return false
}

// --- timers -----------------------------------------------------------------

type timer struct {
	proc     *Proc
	expiry   int64 // virtual ns
	interval int64
	sig      abi.Signal
}

// armTimer installs or replaces the process's interval timer.
func (k *Kernel) armTimer(p *Proc, delay, interval int64, sig abi.Signal) {
	k.disarmTimer(p, sig)
	if delay <= 0 {
		return
	}
	k.timers = append(k.timers, &timer{proc: p, expiry: k.now + delay, interval: interval, sig: sig})
}

func (k *Kernel) disarmTimer(p *Proc, sig abi.Signal) {
	out := k.timers[:0]
	for _, tm := range k.timers {
		if tm.proc != p || tm.sig != sig {
			out = append(out, tm)
		}
	}
	k.timers = out
}

// checkTimers fires every timer whose expiry has passed.
func (k *Kernel) checkTimers() {
	for i := 0; i < len(k.timers); i++ {
		tm := k.timers[i]
		if tm.proc.exited {
			k.timers = append(k.timers[:i], k.timers[i+1:]...)
			i--
			continue
		}
		if tm.expiry <= k.now {
			k.postSignal(tm.proc, tm.sig)
			if tm.interval > 0 {
				tm.expiry = k.now + tm.interval
			} else {
				k.timers = append(k.timers[:i], k.timers[i+1:]...)
				i--
			}
		}
	}
}

// fireEarliestTimer advances global time to the earliest timer or sleep
// deadline and fires it. Returns false when nothing can advance time.
func (k *Kernel) fireEarliestTimer() bool {
	earliest := int64(-1)
	for _, tm := range k.timers {
		if !tm.proc.exited && (earliest < 0 || tm.expiry < earliest) {
			earliest = tm.expiry
		}
	}
	for _, t := range k.kblocked {
		if t.act != nil && t.act.sc != nil && t.act.sc.Num == abi.SysNanosleep {
			if earliest < 0 || t.sleepUntil < earliest {
				earliest = t.sleepUntil
			}
		}
	}
	if earliest < 0 {
		return false
	}
	k.advanceGlobal(earliest)
	k.checkTimers()
	return true
}
