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
func (k *Kernel) resume(t *Thread, m resumeMsg) {
	t.in = m
	act, ok := t.next()
	if !ok {
		t.dead = true
		return
	}
	t.act = act
	k.pending = append(k.pending, t)
}

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
// processed. It is the only place guest code switches to the kernel loop.
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
	if !t.out(m) {
		panic(killedPanic{})
	}
	if t.in.exec {
		panic(execPanic{})
	}
	return t.in
}
