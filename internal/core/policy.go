package core

import (
	"sort"

	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Container implements kernel.Policy: this file is the tracer's event loop
// half — scheduling, the pre/post syscall stops, instruction traps and
// lifecycle hooks. Each call's verdict and handlers are one row of the
// syscall table (syscalls.go); the handlers live in handlers.go.

var (
	_ kernel.Policy             = (*Container)(nil)
	_ kernel.WorkspaceScheduler = (*Container)(nil)
)

// Name implements kernel.Policy.
func (c *Container) Name() string { return "dettrace" }

// ThreadsSerialized tells the kernel's time model that threads within a
// process share one execution token (§5.7).
func (c *Container) ThreadsSerialized() bool { return true }

// ComputeConcurrent implements kernel.WorkspaceScheduler (ISSUE 7): a
// syscall-free compute burst of a thread with live siblings may overlap on
// the physical clock, running inside a private COW workspace forked lazily
// at the phase's first burst. The logical clock is untouched — ordering,
// entropy and every guest-visible byte stay identical to serialized mode —
// so the fork must draw no entropy and the fork cost lands on the physical
// clock only.
// WorkspacesEnabled implements the boot-constant half of the interface: it
// additionally gates the kernel's gap-aware tracer timeline.
func (c *Container) WorkspacesEnabled() bool {
	return !c.cfg.DisableWorkspaces
}

func (c *Container) ComputeConcurrent(t *kernel.Thread) bool {
	if c.cfg.DisableWorkspaces {
		return false
	}
	live := 0
	for _, sib := range t.Proc.Threads {
		if !sib.Dead() {
			live++
		}
	}
	if live <= 1 {
		return false
	}
	if c.ws[t] == nil {
		v := c.sched.VTID(t)
		c.ws[t] = c.k.FS.ForkWorkspace(v)
		t.Clock += c.k.Cost.WsForkCost
		c.wsForks.Inc(t.Proc.Weight)
		c.rec.Record(t.LClock, obs.KindWsFork, 0, int32(v), 0, 0)
	}
	return true
}

// wsSync ends the current workspace phase of t's process: every outstanding
// sibling workspace merges back onto the shared filesystem in vTID order.
// Called at the deterministic sync points — any kernel-loop syscall stop
// (cross-thread effects become possible there) and thread exit (join). The
// buffered fast path is NOT a sync point: no buffered call mutates the
// filesystem. A merge conflict is a deterministic container abort — it is a
// pure function of the journals, never of host completion order.
func (c *Container) wsSync(t *kernel.Thread) {
	if len(c.ws) == 0 {
		return
	}
	var wss []*fs.Workspace
	for _, sib := range t.Proc.Threads {
		if w := c.ws[sib]; w != nil {
			wss = append(wss, w)
			delete(c.ws, sib)
		}
	}
	if len(wss) == 0 {
		return
	}
	stats, err := fs.MergeWorkspaces(wss)
	t.Clock += c.k.Cost.WsMergeCost * int64(len(wss))
	c.wsMerges.Inc(int64(len(wss)) * t.Proc.Weight)
	v := int32(c.sched.VTID(t))
	c.rec.Record(t.LClock, obs.KindWsMerge, 0, v, stats.Digest, int64(len(wss)))
	if err != nil {
		for _, w := range wss {
			w.Discard()
		}
		c.wsConflicts.Inc(int64(stats.Conflicts))
		c.rec.Record(t.LClock, obs.KindWsConflict, 0, v, stats.Digest, int64(stats.Conflicts))
		c.k.Abort(err)
	}
}

// PickNext delegates to the reproducible scheduler and converts its
// busy-wait detection into a container abort.
func (c *Container) PickNext(k *kernel.Kernel, pending []*kernel.Thread) *kernel.Thread {
	t := c.sched.Pick(k, pending)
	if c.sched.Err != nil {
		k.Abort(&UnsupportedError{Op: "busy-wait"})
		c.sched.Err = nil
		return nil
	}
	return t
}

// argsDigest folds a call's pre-rewrite arguments into one word for the
// flight recorder. It must run before any handler rewrites arguments
// (enterKill and wait4 substitute raw host pids in place), because the
// pre-rewrite view is the guest's — virtual pids, ASLR-free addresses — and
// therefore deterministic.
func argsDigest(sc *abi.Syscall) uint64 {
	h := obs.DigestU64(0, uint64(sc.Num),
		uint64(sc.Arg[0]), uint64(sc.Arg[1]), uint64(sc.Arg[2]),
		uint64(sc.Arg[3]), uint64(sc.Arg[4]), uint64(sc.Arg[5]))
	if sc.Path != "" {
		h = obs.DigestU64(h, obs.DigestBytes([]byte(sc.Path)))
	}
	if sc.Path2 != "" {
		h = obs.DigestU64(h, obs.DigestBytes([]byte(sc.Path2)))
	}
	return h
}

// SyscallEnter is the pre-syscall stop.
func (c *Container) SyscallEnter(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	w := t.Proc.Weight
	nr := sc.Num
	// Any syscall reaching the kernel loop is a workspace sync point: from
	// here the call can observe or mutate state shared across threads, so
	// the phase's private workspaces must merge first.
	if sc.Attempts == 0 {
		c.wsSync(t)
	}
	// The verdict is cached on the record so the exit stop reuses it.
	v := c.verdictOf(t, sc)
	if c.rec != nil && sc.Attempts == 0 && !sc.Injected && v == actTrace {
		// Record before any handler: enter handlers rewrite arguments in
		// place, and the event must capture the guest's view.
		c.rec.Record(t.LClock, obs.KindSyscallEnter, int32(nr),
			int32(c.vpid[t.Proc.PID]), argsDigest(sc), 0)
	}

	switch v {
	case actAllow:
		// seccomp-bpf lets the call run natively with no stops (§5.11).
		return kernel.EnterResult{Disposition: kernel.DispExecute}
	case actBuffer:
		// A bufferable call on the slow path: the fast path declined it
		// (buffer full, pending signal, or thread startup). Flush a full
		// buffer with a dedicated combined stop, then service the call the
		// same way the wrapper would have — costs stay a pure function of
		// the thread's logical history either way.
		er := kernel.EnterResult{Disposition: kernel.DispEmulate}
		if t.BufCount >= syscallBufCap {
			er.LocalCost += c.sess.FlushCost(takeBuffered(t), w)
		}
		er.LocalCost += c.serviceBuffered(t, sc)
		return er
	}

	// Unsupported operation classes abort the container reproducibly.
	row := rowOf(nr)
	switch {
	case row.gate == unsupported:
		return abort(&UnsupportedError{Op: "syscall:" + nr.String()})
	case row.gate == socketCall && !c.cfg.ExperimentalSockets:
		return abort(&UnsupportedError{Op: "socket"})
	}
	// The row's handler decides first, so a call it aborts leaves no
	// tracer charge behind, exactly like a gated one.
	var er kernel.EnterResult
	if row.enter != nil {
		if er = row.enter(c, t, sc); er.Disposition == kernel.DispAbort {
			return er
		}
	}
	er.Serialize = true
	// Any traced call is a flush point: its own stop doubles as the buffer
	// drain, so only the per-entry tracer work is added.
	if n := takeBuffered(t); n > 0 {
		er.PreCost += c.sess.DrainCost(n, w)
	}
	if sc.Attempts > 0 {
		// Replays pay a single stop, not the full handler again.
		er.LocalCost = c.sess.Costs.Stop * w
		return er
	}
	er.LocalCost = c.sess.InterceptCost(w) // tracee-side stop stall
	er.PostCost += c.sess.HandlerCost(nr, w)
	c.k.Stats.StopsPerSyscall.Add(nr, w)
	// Path arguments must be read from tracee memory (registers come with
	// the stop itself).
	n := int64(0)
	if sc.Path != "" {
		n++
	}
	if sc.Path2 != "" {
		n++
	}
	if n > 0 {
		er.PreCost += c.sess.ReadMem(w, n)
	}
	return er
}

func abort(err error) kernel.EnterResult {
	return kernel.EnterResult{Disposition: kernel.DispAbort, AbortErr: err}
}

// SyscallExit is the post-syscall stop: result rewriting and retry
// injection.
func (c *Container) SyscallExit(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	row := rowOf(sc.Num)
	switch c.verdictOf(t, sc) {
	case actAllow:
		// Allowed calls keep the token (no stop, no context switch), but an
		// FS or address-space write is progress a waiting sibling may be
		// blocked on: reset the spin count so a token holder looping
		// mkdir/rename/brk between compute bursts is not misdeclared a
		// busy-waiter (the §5.9 false positive).
		if row.write {
			c.sched.NoteWrite(t)
		}
		return kernel.ExitResult{}
	case actBuffer:
		// Already fully serviced (fast path or the emulating enter stop);
		// the completed call is still a context-switch point, which keeps
		// token handoff bounded even for threads looping on buffered calls.
		c.sched.ReleaseToken(t)
		return kernel.ExitResult{}
	}
	var xr kernel.ExitResult
	if row.exit != nil {
		xr = row.exit(c, t, sc)
	}
	if !xr.Retry {
		if !sc.Injected {
			c.rec.Record(t.LClock, obs.KindSyscallExit, int32(sc.Num),
				int32(c.vpid[t.Proc.PID]), 0, sc.Ret)
		}
		// Every completed system call is a thread context-switch point
		// under the serialized-thread rule (§5.9).
		c.sched.ReleaseToken(t)
	}
	return xr
}

// WouldBlock converts every blocking call into the parked/Blocked-queue
// discipline of §5.6.1. The thread token passes on so siblings can make the
// progress that will unblock this call.
func (c *Container) WouldBlock(t *kernel.Thread, sc *abi.Syscall) bool {
	c.sched.ReleaseToken(t)
	return true
}

// Instr emulates trapped instructions (§5.8).
func (c *Container) Instr(t *kernel.Thread, req cpu.Request) (cpu.Result, bool, int64) {
	cost := (c.sess.Costs.Stop + c.sess.Costs.HandlerLight) * t.Proc.Weight
	switch req.Instr {
	case cpu.RDTSC, cpu.RDTSCP:
		c.rdtscCount[t.Proc] += t.Proc.Weight
		// A linear function of rdtsc instructions executed so far: time
		// that advances, reproducibly.
		v := uint64(0x4000_0000 + c.rdtscCount[t.Proc]*1000)
		c.rec.Record(t.LClock, obs.KindInstr, int32(req.Instr),
			int32(c.vpid[t.Proc.PID]), 0, int64(v))
		return cpu.Result{Value: v, OK: true}, true, cost
	case cpu.CPUID:
		leaf := c.maskedCPUID(req.Leaf)
		c.rec.Record(t.LClock, obs.KindInstr, int32(req.Instr),
			int32(c.vpid[t.Proc.PID]), uint64(req.Leaf), int64(leaf.EAX))
		return cpu.Result{Leaf: leaf, OK: true}, true, cost
	default:
		// rdrand, rdseed and TSX cannot be trapped from ring 0 — the
		// paper's critical-instruction finding (§4). They execute on the
		// hardware, irreproducibly; DetTrace hides them via cpuid and
		// relies on programs being well-behaved.
		return cpu.Result{}, false, 0
	}
}

// maskedCPUID presents the canonical simplified machine: one core, a fixed
// cache, no TSX, no hardware randomness (§5.8).
func (c *Container) maskedCPUID(leaf uint32) machine.CPUIDLeaf {
	switch leaf {
	case 0:
		return machine.CPUIDLeaf{EAX: 0x16, EBX: 0x756e6547, ECX: 0x6c65746e, EDX: 0x49656e69}
	case 1:
		return machine.CPUIDLeaf{EAX: 0x000306a9, EBX: 1 << 16} // one core, no rdrand bit
	case 4:
		return machine.CPUIDLeaf{EAX: 0, EBX: 8192} // canonical cache size
	case 7:
		return machine.CPUIDLeaf{} // no TSX, no rdseed
	case 0x16:
		return machine.CPUIDLeaf{EAX: 2000}
	default:
		return machine.CPUIDLeaf{}
	}
}

// OnSpawn registers the new thread with the scheduler and assigns virtual
// ids; spawn is a scheduling decision point.
func (c *Container) OnSpawn(parent, child *kernel.Thread) {
	c.sched.Register(child)
	if child.Proc != parent.Proc {
		v := c.nextVPID
		c.nextVPID++
		c.vpid[child.Proc.PID] = v
		c.rawPid[v] = child.Proc.PID
	}
	c.sched.ReleaseToken(parent)
}

// OnExit removes the thread from scheduling state, flushing any syscall
// records still sitting in its buffer (rr drains on tracee exit too: the
// event log must be complete before the thread is gone).
func (c *Container) OnExit(t *kernel.Thread) {
	if n := takeBuffered(t); n > 0 {
		cost := c.sess.FlushCost(n, t.Proc.Weight)
		t.Clock += cost
		t.LClock += cost
	}
	// Thread exit is a join: the whole phase syncs, so a workspace can
	// never outlive its thread.
	c.wsSync(t)
	c.sched.Unregister(t)
	delete(c.rw, t)
	delete(c.pendingOpen, t)
}

// OnExec re-arms instruction traps, replaces the fresh vDSO and maps the
// scratch page in the new image (§5.3, §5.8, §5.10).
func (c *Container) OnExec(t *kernel.Thread) {
	c.armProcess(t.Proc)
}

// VdsoTime implements kernel.VdsoProvider for the FastVdso configuration:
// the patched vDSO answers timing reads with logical time, no stop needed.
func (c *Container) VdsoTime(t *kernel.Thread) int64 {
	return c.logicalSeconds(t.Proc) * 1e9
}

// sortDirents orders getdents results by name (§5.5).
func sortDirents(ents []abi.Dirent) {
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
}
