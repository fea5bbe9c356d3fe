// Package tracer provides the ptrace-session plumbing shared by every
// interception layer (DetTrace in internal/core, record-and-replay in
// internal/rr): stop-cost accounting, tracee memory access counting, and
// /proc-based fd introspection.
//
// The cost constants model what a real ptrace round trip spends: two
// context switches per stop, handler work in the tracer, and per-operation
// costs for PTRACE_PEEKDATA-style memory access. They are calibrated so the
// DetTrace policy reproduces the paper's measured relationship between
// system call rate and slowdown (Fig. 5; the paper's aggregate 3.49× at
// ~840k syscalls per ~100 s build implies roughly 0.3 ms of tracer service
// per intercepted call).
package tracer

import "repro/internal/abi"

// Costs holds the virtual-time constants of one tracer implementation, in
// nanoseconds.
type Costs struct {
	// Stop is one ptrace stop as the *tracee* experiences it: two context
	// switches, TLB/cache pollution, the stall until resume. It is
	// tracee-side (parallel across processes); the Handler* costs below are
	// tracer-side (serialized).
	Stop int64
	// HandlerLight/Medium/Heavy are per-call tracer service times by
	// handler complexity class (see ClassOf).
	HandlerLight  int64
	HandlerMedium int64
	HandlerHeavy  int64
	// MemOp is one read or write of tracee memory.
	MemOp int64
	// ProcRead is one /proc/<pid>/... lookup (fd→inode resolution, §5.5).
	ProcRead int64
	// BufferRecord is one syscall recorded in the tracee-side syscall
	// buffer (the rr-style fast path): the wrapper's in-process bookkeeping
	// only — no stop, no tracer entry.
	BufferRecord int64
	// FlushPerEntry is the tracer-side cost of draining one buffered record
	// at a flush: validating and appending it to the event log. The flush's
	// stop itself is charged separately (FlushCost) or carried by a stop
	// already being paid for (DrainCost).
	FlushPerEntry int64
}

// DefaultCosts returns the calibrated constants.
func DefaultCosts() Costs {
	return Costs{
		Stop:          120_000,
		HandlerLight:  60_000,
		HandlerMedium: 200_000,
		HandlerHeavy:  500_000,
		MemOp:         5_000,
		ProcRead:      30_000,
		BufferRecord:  2_000,
		FlushPerEntry: 3_000,
	}
}

// Class buckets syscalls by how much tracer work their handler does.
type Class int

// Handler complexity classes.
const (
	ClassLight Class = iota
	ClassMedium
	ClassHeavy
)

// ClassOf reports the handler class for a syscall under DetTrace-style
// interception. Stat-family and open calls are heavy (path reads, /proc
// lookups, struct rewrites); time/randomness emulation is medium; data
// movement is light.
func ClassOf(nr abi.Sysno) Class {
	switch nr {
	case abi.SysOpen, abi.SysOpenat, abi.SysCreat, abi.SysStat, abi.SysLstat,
		abi.SysFstat, abi.SysGetdents, abi.SysExecve, abi.SysUtimes,
		abi.SysUtimensat, abi.SysFork, abi.SysClone, abi.SysWait4:
		return ClassHeavy
	case abi.SysTime, abi.SysGettimeofday, abi.SysClockGettime,
		abi.SysGetrandom, abi.SysUname, abi.SysSysinfo, abi.SysAlarm,
		abi.SysSetitimer, abi.SysNanosleep, abi.SysGetpid, abi.SysGetppid,
		abi.SysGetTid, abi.SysKill:
		return ClassMedium
	default:
		return ClassLight
	}
}

// Counters is one session's accounting, plain fields the session bumps in
// place. A session counts into whatever Counters its owner points it at:
// DetTrace's live in the attached kernel's Stats, which embeds them, so they
// are sealed and restored with the rest of the run's state.
type Counters struct {
	MemReads  int64 // tracee memory reads (weighted)
	MemWrites int64
	ProcReads int64
	Stops     int64
	// BufferedCalls counts syscalls serviced through the tracee-side
	// buffer (no stop); Flushes counts the batched drains that carried
	// them to the tracer.
	BufferedCalls int64
	Flushes       int64
}

// Session tracks one attached tracer's accounting. It runs under the
// kernel's lockstep, so it is the single writer of the Counters it is
// pointed at.
type Session struct {
	Costs Costs

	// SingleStop is the kernel >= 4.8 optimization: seccomp delivers one
	// combined event instead of separate pre-syscall and seccomp stops
	// (§5.11).
	SingleStop bool

	// Counters is where the session counts. Its owner may re-point it, as
	// a container does each time it attaches to a kernel.
	Counters *Counters
}

// NewSession returns a session with default costs that counts into c.
func NewSession(c *Counters, singleStop bool) *Session {
	return &Session{Costs: DefaultCosts(), SingleStop: singleStop, Counters: c}
}

// InterceptCost returns the stop overhead for one intercepted syscall event
// of the given weight: either the combined event or the classic entry+exit
// pair, scaled because an event of weight w stands for w real stops.
func (s *Session) InterceptCost(weight int64) int64 {
	stops := int64(2)
	if s.SingleStop {
		stops = 1
	}
	s.Counters.Stops += stops * weight
	return stops * s.Costs.Stop * weight
}

// HandlerCost returns the service cost for nr's handler class at the given
// event weight.
func (s *Session) HandlerCost(nr abi.Sysno, weight int64) int64 {
	var c int64
	switch ClassOf(nr) {
	case ClassHeavy:
		c = s.Costs.HandlerHeavy
	case ClassMedium:
		c = s.Costs.HandlerMedium
	default:
		c = s.Costs.HandlerLight
	}
	return c * weight
}

// ReadMem records n reads of tracee memory and returns their cost.
func (s *Session) ReadMem(weight int64, n int64) int64 {
	s.Counters.MemReads += n * weight
	return n * s.Costs.MemOp * weight
}

// WriteMem records n writes of tracee memory and returns their cost.
func (s *Session) WriteMem(weight int64, n int64) int64 {
	s.Counters.MemWrites += n * weight
	return n * s.Costs.MemOp * weight
}

// ReadProc records one /proc lookup and returns its cost.
func (s *Session) ReadProc(weight int64) int64 {
	s.Counters.ProcReads += weight
	return s.Costs.ProcRead * weight
}

// RecordBuffered accounts one syscall serviced through the tracee-side
// buffer: no stop, just the wrapper's local bookkeeping.
func (s *Session) RecordBuffered(weight int64) int64 {
	s.Counters.BufferedCalls += weight
	return s.Costs.BufferRecord * weight
}

// FlushCost accounts a dedicated flush of n buffered records: one combined
// stop amortized over the batch.
func (s *Session) FlushCost(n, weight int64) int64 {
	s.Counters.Flushes += weight
	s.Counters.Stops += weight
	return (s.Costs.Stop + n*s.Costs.FlushPerEntry) * weight
}

// DrainCost accounts draining n buffered records on a stop that is already
// being paid for — a traced call's own stop doubles as the flush point, so
// only the per-entry work is new.
func (s *Session) DrainCost(n, weight int64) int64 {
	if n == 0 {
		return 0
	}
	s.Counters.Flushes += weight
	return n * s.Costs.FlushPerEntry * weight
}
