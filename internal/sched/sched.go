// Package sched implements DetTrace's reproducible scheduler (§5.6, Fig. 3).
//
// The scheduler's one job is to make every ordering decision a pure function
// of the container's logical history — never of host time, host PIDs, or
// physical arrival order. It does so by assigning each thread a virtual TID
// in spawn order and driving three queues:
//
//   - Parallel: threads currently between system calls (compute, special
//     instructions). These run concurrently on the physical machine; the
//     scheduler merely processes their bookkeeping in vTID order.
//   - Runnable: threads stopped at a system call, serviced strictly FIFO —
//     this is the sequentialization of system call execution.
//   - Blocked: threads whose call would block, revisited fairly (front,
//     then rotate) so any call unblocked by another process's progress
//     eventually runs.
//
// It also owns the two §5.7/§5.9 thread rules: threads within a process are
// serialized via an execution token that changes hands only at system
// calls, thread creation and exit; and a token holder that spins in pure
// compute while siblings starve is detected as a busy-waiter.
package sched

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// ErrBusyWait is raised when a thread busy-waits: the serialized-thread
// scheduler would never switch away from it, so the container cannot make
// progress (the Java-build failure class of §7.1.1).
var ErrBusyWait = errors.New("sched: busy-waiting thread detected (unsupported under serialized threads)")

// DefaultSpinLimit is how many consecutive syscall-free actions a token
// holder may take while a sibling thread is starved before the scheduler
// declares a busy-wait.
const DefaultSpinLimit = 4096

// Scheduler is the reproducible policy's ordering engine.
//
// The per-thread half of the bookkeeping (vTID, Runnable membership) lives on
// the thread itself, in kernel.Thread.Sched, so a pick reads fields instead
// of maps.
type Scheduler struct {
	nextVTID int

	// runnable holds threads stopped at a system call, ordered by logical
	// arrival time (the jitter-free LClock when the stop was first seen,
	// with vTID breaking ties). Servicing in logical-arrival order keeps
	// the tracer from idling on a stop that is still far in the future
	// while already-stopped processes wait — and stays a pure function of
	// logical history, so it is reproducible. A pop copies the queue down
	// rather than reslicing it, so the array keeps its capacity and a
	// steady-state push never reallocates. Sched.Runnable marks membership,
	// so re-offered threads aren't re-queued.
	runnable []arrival

	// blockedRotor remembers where the fair Blocked-queue scan left off.
	blockedRotor int

	// turn alternates servicing between parallel work and the Runnable
	// queue so neither starves the other.
	turn int64

	// token maps a process (by its vPID owner thread set) to the thread
	// currently holding the execution token.
	token map[*kernel.Proc]*kernel.Thread

	// Workspace marks the workspace-consistency execution mode (ISSUE 7):
	// syscall-free sibling threads run concurrently in private COW
	// workspaces and serialize only at sync points. In this mode a PARKED
	// sibling is usually waiting at a merge barrier (futex join), not
	// starving for the token, so the §5.9 spin detector must not count it —
	// counting only PENDING siblings keeps true busy-waiters (spinning in
	// pure compute while a sibling is stuck pending) detected identically
	// in both modes.
	Workspace bool

	// Err is set when the scheduler detects an unsupported condition; the
	// policy turns it into a container abort.
	Err error

	// Requests counts scheduling decisions, for Table 2.
	Requests int64

	// Rec, when non-nil, receives one KindSched event per decision: the
	// chosen vTID and which queue it came from. Decisions are pure
	// functions of logical history, so the event stream is too.
	Rec *obs.Recorder
}

// Queue classes reported in KindSched events.
const (
	pickedParallel = iota
	pickedRunnable
	pickedBlocked
)

// picked records the decision and returns t unchanged.
func (s *Scheduler) picked(t *kernel.Thread, class uint64) *kernel.Thread {
	if t != nil {
		s.Rec.Record(t.LClock, obs.KindSched, 0, int32(t.Sched.VTID), class, 0)
	}
	return t
}

// Seal is the scheduler's checkpointable state at a quiescent traced stop.
// Quiescence (one process, one live thread, stopped at an unattempted execve
// that has not yet been through Pick) empties everything transient: the
// Runnable queue holds nothing, Sched.Runnable is false for the survivor,
// and no sibling can contend for the token. What remains is the counter
// state that future decisions are a pure function of.
type Seal struct {
	VTID         int
	NextVTID     int
	Turn         int64
	BlockedRotor int
	Requests     int64
	TokenHeld    bool
	// Registered distinguishes a sealed vTID of 0 from "never Picked yet":
	// the init thread is only Registered by its first Pick, so a seal taken
	// at the boot execve must leave the resumed thread unregistered too —
	// otherwise nextVTID stays 0 and the next spawn collides with vTID 0.
	Registered bool
}

// CheckpointSeal captures the scheduler state relevant to the sole surviving
// thread t. The caller (the kernel's quiescence check) guarantees t is the
// only live thread and its stop has not been Picked yet.
func (s *Scheduler) CheckpointSeal(t *kernel.Thread) Seal {
	return Seal{
		VTID:         t.Sched.VTID,
		NextVTID:     s.nextVTID,
		Turn:         s.turn,
		BlockedRotor: s.blockedRotor,
		Requests:     s.Requests,
		TokenHeld:    s.token[t.Proc] == t,
		Registered:   t.Sched.Registered,
	}
}

// RestoreSeal rebinds a seal to the resumed incarnation of the surviving
// thread on a fresh scheduler, so the next Pick makes exactly the decision
// the uninterrupted run made (same vTID, same turn parity, same rotor).
func (s *Scheduler) RestoreSeal(seal Seal, t *kernel.Thread) {
	if seal.Registered {
		t.Sched.VTID, t.Sched.Registered = seal.VTID, true
	}
	s.nextVTID = seal.NextVTID
	s.turn = seal.Turn
	s.blockedRotor = seal.BlockedRotor
	s.Requests = seal.Requests
	if seal.TokenHeld {
		s.token[t.Proc] = t
	}
}

// arrival is one queued syscall stop.
type arrival struct {
	t   *kernel.Thread
	key int64 // LClock at enqueue
}

// New returns an empty scheduler.
func New() *Scheduler {
	return &Scheduler{token: make(map[*kernel.Proc]*kernel.Thread)}
}

// Register assigns a vTID at spawn; idempotent.
func (s *Scheduler) Register(t *kernel.Thread) {
	if !t.Sched.Registered {
		t.Sched.VTID, t.Sched.Registered = s.nextVTID, true
		s.nextVTID++
	}
}

// VTID returns the thread's virtual TID.
func (s *Scheduler) VTID(t *kernel.Thread) int { return t.Sched.VTID }

// Unregister drops a thread at exit and releases its token. The vTID is
// cleared too: a dead thread must never be eligible for the token again.
func (s *Scheduler) Unregister(t *kernel.Thread) {
	if s.token[t.Proc] == t {
		s.ReleaseToken(t)
		if s.token[t.Proc] == t {
			delete(s.token, t.Proc)
		}
	}
	for i, r := range s.runnable {
		if r.t == t {
			s.runnable = append(s.runnable[:i], s.runnable[i+1:]...)
			break
		}
	}
	t.Sched = kernel.SchedState{}
}

// holdsToken reports whether t may run under the serialized-thread rule and
// claims the token when free.
func (s *Scheduler) holdsToken(t *kernel.Thread) bool {
	p := t.Proc
	if len(p.Threads) <= 1 {
		return true
	}
	cur, ok := s.token[p]
	if !ok || cur == nil || cur.Proc != p || cur.Dead() {
		s.token[p] = t
		return true
	}
	return cur == t
}

// ReleaseToken passes the token to the next live sibling in vTID order —
// called by the policy at system calls, thread spawn and exit (§5.9's
// context-switch points).
func (s *Scheduler) ReleaseToken(t *kernel.Thread) {
	p := t.Proc
	if s.token[p] != t {
		return
	}
	t.SpinCount = 0
	// Hand off to the next sibling after t in vTID order, wrapping.
	var best, first *kernel.Thread
	myV := t.Sched.VTID
	bestV, firstV := int(^uint(0)>>1), int(^uint(0)>>1)
	for _, sib := range p.Threads {
		if sib == t || sib.Dead() {
			continue
		}
		if !sib.Sched.Registered {
			continue
		}
		v := sib.Sched.VTID
		if v > myV && v < bestV {
			best, bestV = sib, v
		}
		if v < firstV {
			first, firstV = sib, v
		}
	}
	switch {
	case best != nil:
		s.token[p] = best
	case first != nil:
		s.token[p] = first
	default:
		delete(s.token, p)
	}
}

// Pick selects the next pending or parked thread to process. The kernel
// supplies pending in arbitrary host order; parked is the policy's Blocked
// queue in park order. Decisions depend only on vTIDs and queue history.
func (s *Scheduler) Pick(k *kernel.Kernel, pending []*kernel.Thread) *kernel.Thread {
	s.Requests++
	for _, t := range pending {
		s.Register(t) // init thread is never OnSpawn'd
	}

	// 1. Find the best parallel candidate: the lowest-vTID non-syscall
	// action whose thread holds its process token.
	var parallel *kernel.Thread
	parV := int(^uint(0) >> 1)
	for _, t := range pending {
		if t.ActionIsSyscall() {
			continue
		}
		if !s.holdsToken(t) {
			continue
		}
		if v := t.Sched.VTID; v < parV {
			parallel, parV = t, v
		}
	}

	// 2. Enqueue newly arrived syscall stops into Runnable at their logical
	// arrival position.
	for _, t := range pending {
		if t.ActionIsSyscall() && !t.Sched.Runnable && s.holdsToken(t) {
			s.insertRunnable(arrival{t: t, key: t.LClock})
			t.Sched.Runnable = true
		}
	}

	// 3. Alternate between parallel bookkeeping and the Runnable front so a
	// compute-bound thread cannot starve system call servicing (and vice
	// versa). The alternation is a turn counter — logical history only.
	s.turn++
	if parallel != nil && (len(s.runnable) == 0 || s.turn%2 == 0) {
		return s.picked(s.pickParallel(parallel, pending, k), pickedParallel)
	}
	if len(s.runnable) > 0 {
		t := s.runnable[0].t
		n := copy(s.runnable, s.runnable[1:])
		s.runnable[n] = arrival{}
		s.runnable = s.runnable[:n]
		t.Sched.Runnable = false
		return s.picked(t, pickedRunnable)
	}
	if parallel != nil {
		return s.picked(s.pickParallel(parallel, pending, k), pickedParallel)
	}

	// 4. Nothing runnable: revisit the Blocked queue fairly. Each visit
	// replays the front call in non-blocking form; if the whole container
	// is otherwise idle and nothing can complete, give up so the kernel can
	// fire timers or declare deadlock.
	parked := k.Parked()
	if len(parked) > 0 {
		anyReady := false
		for _, t := range parked {
			if k.ParkedReady(t) {
				anyReady = true
				break
			}
		}
		if !anyReady && len(pending) == 0 {
			return nil
		}
		i := s.blockedRotor % len(parked)
		s.blockedRotor++
		return s.picked(parked[i], pickedBlocked)
	}
	return nil
}

// pickParallel returns the parallel candidate after running the busy-wait
// check: a token holder making syscall-free progress while a sibling is
// waiting for the token is a spinner the serialized-thread scheduler will
// never preempt (§5.9).
func (s *Scheduler) pickParallel(t *kernel.Thread, pending []*kernel.Thread, k *kernel.Kernel) *kernel.Thread {
	if s.siblingStarved(t, pending, k) {
		t.SpinCount++
		if t.SpinCount > DefaultSpinLimit {
			s.Err = ErrBusyWait
			return nil
		}
	} else {
		t.SpinCount = 0
	}
	return t
}

// siblingStarved reports whether another thread of t's process is waiting
// to run (pending or parked) while t holds the token. Under Workspace mode
// a parked sibling whose wake condition has not fired is exempt: it is a
// merge-barrier waiter (futex join) the workspace scheduler will release,
// not a starved thread. A parked sibling that is already ParkedReady — its
// condition holds but the spinning token holder keeps winning the parallel
// pick — still counts, so genuine busy-waits abort identically in both
// modes.
func (s *Scheduler) siblingStarved(t *kernel.Thread, pending []*kernel.Thread, k *kernel.Kernel) bool {
	for _, o := range pending {
		if o != t && o.Proc == t.Proc {
			return true
		}
	}
	for _, o := range k.Parked() {
		if o != t && o.Proc == t.Proc {
			if s.Workspace && !k.ParkedReady(o) {
				continue
			}
			return true
		}
	}
	return false
}

// NoteWrite records that t, while holding the token, performed an FS or
// memory-map write. A writer is by definition making progress toward the
// condition a waiting sibling blocks on, so its spin count restarts — this
// is the §5.9 false-positive fix: previously the count only reset when no
// sibling waited at all, so a token holder looping Allow-verdict writes
// (mkdir/rename/brk in a hot loop) with a parked sibling was eventually
// misdeclared a busy-waiter.
func (s *Scheduler) NoteWrite(t *kernel.Thread) {
	t.SpinCount = 0
}

// insertRunnable places a at its (key, vTID) position, stable.
func (s *Scheduler) insertRunnable(a arrival) {
	i := len(s.runnable)
	for i > 0 {
		prev := s.runnable[i-1]
		if prev.key < a.key || (prev.key == a.key && prev.t.Sched.VTID <= a.t.Sched.VTID) {
			break
		}
		i--
	}
	s.runnable = append(s.runnable, arrival{})
	copy(s.runnable[i+1:], s.runnable[i:])
	s.runnable[i] = a
}
