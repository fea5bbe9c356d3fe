package core

import (
	"repro/internal/abi"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// This file is DetTrace's in-tracee syscall buffer: the rr-style fast path
// for light intercepted calls. The injected wrapper library services a
// Buffer-verdict call in-process — no ptrace stop, no tracer round trip —
// appends a record to a per-thread buffer, and lets the accumulated records
// reach the tracer in one batched flush.
//
// Determinism argument (see DESIGN.md "The in-tracee syscall buffer"):
// every buffered answer is computed from container state that is itself a
// pure function of logical history (the logical clock, the vpid map, kernel
// fd/cwd state under the determinized schedule), the costs charged are
// constants plus the kernel's data-copy term for the bytes the call moved,
// applied identically to the physical and logical clocks, and every flush
// point — buffer full, any traced call, thread exit — is a pure function of
// the thread's own logical history. Nothing host-visible decides
// when or what to buffer, so results are bitwise identical with the buffer
// on, off, and at any parallelism.

// syscallBufCap is the per-thread record capacity: reaching it forces a
// dedicated flush stop. 64 keeps the amortized stop cost below the per-call
// record cost while bounding how long the tracer's event log lags execution.
const syscallBufCap = 64

// BufferSyscall implements kernel.SyscallBufferer: it runs on the guest
// goroutine, before the call would yield to the kernel loop. Claiming the
// call means servicing it completely right here — result, out-buffers, cost
// accounting — with the thread never stopping.
//
// The call is declined (slow path, which flushes and services it at a real
// stop) when the verdict is not Buffer or the buffer is full. The kernel
// additionally keeps the slow path authoritative around signals and thread
// startup.
func (c *Container) BufferSyscall(t *kernel.Thread, sc *abi.Syscall) bool {
	if c.verdictOf(t, sc) != actBuffer || t.BufCount >= syscallBufCap {
		return false
	}
	// The call still enters the kernel natively (seccomp lets it through)
	// and pays the kernel's data-copy term, as at a traced stop; the
	// wrapper's bookkeeping rides on top. Both clocks take the same cost,
	// keeping logical ordering in lockstep with physical time.
	cost := c.serviceBuffered(t, sc)
	cost += c.k.DirectCost(sc, t.Proc.Weight)
	t.Clock += cost
	t.LClock += cost
	return true
}

// serviceBuffered answers one Buffer-verdict call in the tracee: the row's
// own enter and exit handlers run in-process around the kernel service
// routine, exactly as at a traced stop minus the tracer's memory charges.
// An exit handler's Fig. 4 retry re-runs the routine in-process until the
// call completes, so a short read returns the traced total. It appends the
// call's record to the thread's buffer and returns the tracee-side record
// cost. Buffer verdicts go only to calls that cannot block, so direct
// execution cannot park the thread.
func (c *Container) serviceBuffered(t *kernel.Thread, sc *abi.Syscall) int64 {
	row := rowOf(sc.Num)
	emulated := row.enter != nil && row.enter(c, t, sc).Disposition == kernel.DispEmulate
	for {
		if !emulated {
			c.k.ExecDirect(t, sc)
		}
		if row.exit == nil || !row.exit(c, t, sc).Retry {
			break
		}
	}
	t.BufCount++
	// One event per buffered call, recorded here so the fast path and the
	// slow-path Buffer verdict (buffer full, pending signal) produce the
	// same ring: where a call was serviced is mechanism, not behaviour.
	c.rec.Record(t.LClock, obs.KindBuffered, int32(sc.Num),
		int32(c.vpid[t.Proc.PID]), 0, sc.Ret)
	return c.sess.RecordBuffered(t.Proc.Weight)
}

// takeBuffered empties the thread's buffer and reports how many records it
// held, for flush-cost accounting.
func takeBuffered(t *kernel.Thread) int64 {
	n := int64(t.BufCount)
	t.BufCount = 0
	return n
}

var _ kernel.SyscallBufferer = (*Container)(nil)
