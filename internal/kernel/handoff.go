//go:build go1.23

package kernel

import "iter"

// This file is the kernel ↔ guest hand-off. Every guest thread is a coroutine
// its kernel owns: startThread pulls the thread's action sequence, t.next()
// switches to the guest until it yields its next action, and t.stop() is the
// kill. A switch is a direct goroutine-to-goroutine transfer — no channel, no
// trip through the Go scheduler — and it keeps the lockstep invariant by
// construction: exactly one of the kernel loop and one guest runs.
//
// An action costs one such switch each way, except a compute burst the
// policy hands straight back, which costs none: a guest that issues a burst
// while the kernel is parked in the resume ending its previous one runs the
// loop iteration on its own stack (runAhead) and switches only when the
// iteration reaches something the kernel goroutine must do. The lockstep
// rule holds unchanged — kernel code still runs on one goroutine at a time,
// only not always the same one.
//
// Two rules follow from the sequence shape. A returned sequence is a dead
// thread: there is no "I am dead" message, next() reporting the end is the
// death. And teardown is synchronous: stop() returns only when the guest
// function has returned, because a killed thread's every further yield
// re-panics instead of reaching the kernel (see yield), so whichever way Run
// ends, no goroutine and nothing pinning the kernel is left behind.

// startThread creates t's coroutine and runs it to its first yield.
func (k *Kernel) startThread(t *Thread) {
	t.next, t.stop = iter.Pull(t.run)
	k.resume(t, resumeMsg{})
}

// resume completes t's current action: the guest continues, yields its next
// action, and t rejoins the pending set — or its sequence ends and it is dead.
// Inside runAhead, on t's own coroutine, it only leaves t its answer.
func (k *Kernel) resume(t *Thread, m resumeMsg) {
	t.in = m
	if k.inline == t {
		return
	}
	k.switches++
	act, ok := t.next()
	k.spin = nil
	if !ok {
		t.dead = true
		return
	}
	if k.ahead.at == stageTail { // otherwise runAhead queued act itself
		k.enqueue(t, act)
	}
}

// enqueue makes act t's pending action.
func (k *Kernel) enqueue(t *Thread, act *yieldMsg) {
	t.act = act
	k.addPending(t)
}

// runAhead is the inline step, run on t's coroutine when t issues compute
// burst m. If the kernel goroutine is parked in the resume that ends
// runCompute for t, all that is left of its loop iteration is the rest of
// resume, tail and pick — so t runs them itself, with the functions run
// calls, in run's order. When pick hands t straight back, t processes the
// burst right here and runAhead reports true: no switch either way.
//
// Anything else is the kernel goroutine's to do, and t stops short of it:
// ending the run (abort, halt, injected crash, deadline, runaway, deadlock),
// firing a timer, delivering a pending signal, or running another thread.
// runAhead then records in k.ahead the step it stopped at and reports
// false; the caller switches, and run continues from that step with nothing
// re-run or skipped. maybeCheckpoint, which pick calls, never seals here:
// quiescentStop wants the sole pending thread at an execve, and t is pending
// on a compute burst.
func (k *Kernel) runAhead(t *Thread, m *yieldMsg) bool {
	if k.spin != t || forceSwitch {
		return false
	}
	k.enqueue(t, m)
	s := k.tail()
	if s.at == stagePick {
		s = k.pick()
	}
	if s.at != stageAct || s.t != t || len(t.Proc.sigPending) != 0 {
		k.ahead = s
		return false
	}
	k.inline = t
	k.processAction(t)
	k.inline = nil
	return true
}

// forceSwitch makes runAhead decline every burst, so tests can run a guest
// both ways and compare.
var forceSwitch bool

// killThread stops t's coroutine and returns once the guest has unwound.
// Callers must know the thread has yielded (the lockstep invariant makes
// this true whenever kernel code runs).
func (k *Kernel) killThread(t *Thread) {
	if t.dead {
		return
	}
	t.dead = true
	t.stop()
}

// run is the thread's action sequence, executed on its coroutine: it runs the
// program, handles execve unwinding, and yields the exit action last. A panic
// that is not the kill unwind is a bug in guest code; it propagates through
// next() into the goroutine driving the kernel.
func (t *Thread) run(out func(*yieldMsg) bool) {
	t.out = out
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				panic(r)
			}
		}
	}()
	for {
		code, execed := t.invoke()
		if execed {
			continue
		}
		t.msg = yieldMsg{kind: yieldExit, code: code}
		t.yield(&t.msg)
		return
	}
}

// invoke runs the current program image, converting an execve unwind into a
// normal return.
func (t *Thread) invoke() (code int, execed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(execPanic); ok {
				t.program = t.pendingExec
				t.pendingExec = nil
				execed = true
				return
			}
			panic(r)
		}
	}()
	return t.program(t), false
}

// yield hands an action to the kernel and suspends until it has been
// processed. It is the only place guest code switches to the kernel loop,
// and a compute burst may not need to (runAhead).
//
// Once the thread is dead, yield panics without switching: guest code that
// keeps issuing actions while the kill unwinds it (a deferred unlink, say)
// has no kernel-visible effect and cannot stall the teardown.
func (t *Thread) yield(m *yieldMsg) resumeMsg {
	if t.dead {
		panic(killedPanic{})
	}
	if m.weight == 0 {
		m.weight = t.Proc.Weight
	}
	if m.kind == yieldCompute && t.k.runAhead(t, m) {
		return t.in
	}
	if !t.out(m) {
		panic(killedPanic{})
	}
	if t.in.exec {
		panic(execPanic{})
	}
	return t.in
}
