package core_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/guest"
)

// The in-tracee syscall buffer is a performance mechanism only: every test
// here runs the same buffered-call-heavy workload and requires bitwise
// identical observables with the buffer on, off, and across hosts — while the
// cost accounting must show the stops actually disappearing.

// bufferHeavyProgram leans on every Buffer-verdict syscall — the time family,
// the pid family, lseek, fcntl, umask, getcwd — with periodic traced calls
// and process churn so all three flush points (full buffer, traced call,
// thread exit) are exercised.
func bufferHeavyProgram(p *guest.Proc) int {
	p.Umask(0o022)
	fd, err := p.Open("/tmp/buf.dat", abi.OCreat|abi.ORdwr, 0o644)
	if err != abi.OK {
		return 1
	}
	p.Write(fd, []byte("0123456789abcdef"))
	for i := 0; i < 200; i++ {
		p.Printf("%d:%d:%d:%d ", p.Time(), p.Getpid(), p.Getppid(), p.Gettid())
		if off, err := p.Lseek(fd, int64(i%16), 0); err != abi.OK || off != int64(i%16) {
			return 2
		}
		p.Fcntl(fd, 3, 0) // F_GETFL
		if cwd, err := p.Getcwd(); err != abi.OK || cwd == "" {
			return 3
		}
		if st, err := p.Fstat(fd); err != abi.OK || st.Size != 16 {
			return 4
		}
		if i%64 == 0 {
			// Traced calls and a fork: drain-at-stop flush points, plus a
			// child whose exit flushes its own buffer.
			p.WriteFile("/tmp/f", []byte{byte(i)}, 0o644)
			p.Fork(func(c *guest.Proc) int {
				c.Printf("[child %d@%d]", c.Getpid(), c.Time())
				return 0
			})
			p.Wait()
		}
	}
	p.Close(fd)
	return 0
}

func TestSyscallBufferOnOffEquivalence(t *testing.T) {
	on := runDT(t, hostA, core.Config{}, bufferHeavyProgram)
	off := runDT(t, hostA, core.Config{Off: core.Off(core.SyscallBuf)}, bufferHeavyProgram)
	if on.Err != nil || off.Err != nil || on.ExitCode != 0 || off.ExitCode != 0 {
		t.Fatalf("runs failed: %v (exit %d) / %v (exit %d)", on.Err, on.ExitCode, off.Err, off.ExitCode)
	}
	if fingerprint(on) != fingerprint(off) {
		t.Errorf("syscall buffering changed results — it may only change cost")
	}
	if on.Tracer.BufferedCalls == 0 {
		t.Errorf("no calls went through the buffer in the buffered run")
	}
	if off.Tracer.BufferedCalls != 0 || off.Tracer.Flushes != 0 {
		t.Errorf("ablated run still buffered: %d calls, %d flushes",
			off.Tracer.BufferedCalls, off.Tracer.Flushes)
	}
	if on.Tracer.Stops >= off.Tracer.Stops {
		t.Errorf("buffering should eliminate stops: %d vs %d", on.Tracer.Stops, off.Tracer.Stops)
	}
	if on.WallTime >= off.WallTime {
		t.Errorf("buffering should be faster: %d vs %d", on.WallTime, off.WallTime)
	}
}

// The determinism meta-test for the buffer: observables are a pure function
// of container inputs, whatever the host looks like and whether the buffer
// is on.
func TestSyscallBufferDeterminismAcrossHosts(t *testing.T) {
	a := runDT(t, hostA, core.Config{}, bufferHeavyProgram)
	b := runDT(t, hostB, core.Config{}, bufferHeavyProgram)
	bOff := runDT(t, hostB, core.Config{Off: core.Off(core.SyscallBuf)}, bufferHeavyProgram)
	if a.Err != nil || b.Err != nil || bOff.Err != nil {
		t.Fatalf("runs failed: %v / %v / %v", a.Err, b.Err, bOff.Err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Errorf("buffered run differs across hosts")
	}
	if fingerprint(a) != fingerprint(bOff) {
		t.Errorf("buffered run on host A differs from unbuffered run on host B")
	}
}

// A thread looping on buffered calls never visits the scheduler between
// flushes; the forced flush at buffer capacity must still hand the execution
// token to starved siblings instead of spinning forever.
func TestBufferedLoopDoesNotStarveSiblings(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		done := false
		p.CloneThread(func(q *guest.Proc) int {
			done = true
			return 0
		})
		// Buffered calls only; without token handoff at flush points the
		// sibling would never run and this would abort as a busy-wait.
		for i := 0; i < 5000 && !done; i++ {
			p.Time()
		}
		if !done {
			return 1
		}
		return 0
	})
	if res.Err != nil || res.ExitCode != 0 {
		t.Errorf("buffered loop starved its sibling: err=%v exit=%d", res.Err, res.ExitCode)
	}
}
