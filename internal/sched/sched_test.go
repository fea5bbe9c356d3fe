package sched

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// Scheduling decisions that need live syscall stops are covered by the
// integration tests in internal/core and internal/buildsim; these unit tests
// pin down the pure bookkeeping: vTID assignment, token hand-off and
// lifecycle cleanup, using bare thread structs.

func fabricate(n int) (*kernel.Proc, []*kernel.Thread) {
	p := &kernel.Proc{}
	var ts []*kernel.Thread
	for i := 0; i < n; i++ {
		t := &kernel.Thread{TID: 100 + i, Proc: p}
		p.Threads = append(p.Threads, t)
		ts = append(ts, t)
	}
	return p, ts
}

func TestRegisterAssignsSequentialVTIDs(t *testing.T) {
	s := New()
	_, ts := fabricate(3)
	for _, th := range ts {
		s.Register(th)
	}
	for i, th := range ts {
		if s.VTID(th) != i {
			t.Errorf("vtid[%d] = %d", i, s.VTID(th))
		}
	}
	// Idempotent.
	s.Register(ts[1])
	if s.VTID(ts[1]) != 1 {
		t.Errorf("re-registration changed vtid")
	}
}

func TestVTIDsIndependentOfHostTIDs(t *testing.T) {
	// Two runs whose host TIDs differ wildly must assign the same vTIDs in
	// registration order — that is the whole point.
	for run := 0; run < 2; run++ {
		s := New()
		p := &kernel.Proc{}
		for i := 0; i < 4; i++ {
			th := &kernel.Thread{TID: 1000*run + 7*i + 3, Proc: p}
			p.Threads = append(p.Threads, th)
			s.Register(th)
			if s.VTID(th) != i {
				t.Fatalf("run %d: vtid = %d, want %d", run, s.VTID(th), i)
			}
		}
	}
}

func TestTokenRotationSkipsDeadThreads(t *testing.T) {
	s := New()
	_, ts := fabricate(3)
	for _, th := range ts {
		s.Register(th)
	}
	if !s.holdsToken(ts[0]) {
		t.Fatal("first claimant should get the token")
	}
	if s.holdsToken(ts[1]) {
		t.Fatal("second thread must not steal the token")
	}
	s.ReleaseToken(ts[0])
	if !s.holdsToken(ts[1]) {
		t.Fatal("token should pass to the next vTID")
	}
	// Kill ts[2]; release from ts[1] must wrap to ts[0], skipping the dead.
	s.Unregister(ts[2])
	s.ReleaseToken(ts[1])
	if !s.holdsToken(ts[0]) {
		t.Fatal("token should wrap to ts[0], skipping the unregistered thread")
	}
}

func TestUnregisterReleasesHeldToken(t *testing.T) {
	s := New()
	_, ts := fabricate(2)
	s.Register(ts[0])
	s.Register(ts[1])
	if !s.holdsToken(ts[0]) {
		t.Fatal("claim failed")
	}
	s.Unregister(ts[0])
	if !s.holdsToken(ts[1]) {
		t.Fatal("token stuck with an unregistered thread")
	}
}

func TestSingleThreadAlwaysHoldsToken(t *testing.T) {
	s := New()
	_, ts := fabricate(1)
	s.Register(ts[0])
	for i := 0; i < 3; i++ {
		if !s.holdsToken(ts[0]) {
			t.Fatal("single-threaded processes are never token-gated")
		}
		s.ReleaseToken(ts[0])
	}
}

func TestInsertRunnableOrdersByLogicalArrival(t *testing.T) {
	s := New()
	_, ts := fabricate(4)
	for _, th := range ts {
		s.Register(th)
	}
	s.insertRunnable(arrival{t: ts[0], key: 300})
	s.insertRunnable(arrival{t: ts[1], key: 100})
	s.insertRunnable(arrival{t: ts[2], key: 200})
	s.insertRunnable(arrival{t: ts[3], key: 200}) // tie: higher vTID after
	want := []*kernel.Thread{ts[1], ts[2], ts[3], ts[0]}
	for i, a := range s.runnable {
		if a.t != want[i] {
			t.Fatalf("position %d: got vtid %d", i, s.VTID(a.t))
		}
	}
}

func TestPickNilOnEmpty(t *testing.T) {
	s := New()
	k := kernel.Prepare(kernel.Config{Profile: machine.CloudLabC220G5()}).Boot(kernel.BootConfig{Seed: 1})
	if got := s.Pick(k, nil); got != nil {
		t.Errorf("Pick on empty = %v", got)
	}
	if s.Requests != 1 {
		t.Errorf("requests = %d", s.Requests)
	}
}

// pickProbe is a bare policy around a Scheduler that, the first time it is
// shown two or more threads stopped at system calls beside one in compute,
// counts what a thousand Picks on that set allocate in all, so an allocation
// every few Picks (a queue reallocated as it walks its array) shows too.
type pickProbe struct {
	*Scheduler
	allocs   float64
	measured bool
}

func (p *pickProbe) Name() string { return "pick-probe" }

func (p *pickProbe) PickNext(k *kernel.Kernel, pending []*kernel.Thread) *kernel.Thread {
	stopped := 0
	for _, t := range pending {
		if t.ActionIsSyscall() {
			stopped++
		}
	}
	if !p.measured && stopped >= 2 && stopped < len(pending) {
		p.measured = true
		p.allocs = testing.AllocsPerRun(1, func() {
			for range 1000 {
				p.Pick(k, pending)
			}
		})
	}
	return p.Pick(k, pending)
}

func (p *pickProbe) SyscallEnter(*kernel.Thread, *abi.Syscall) kernel.EnterResult {
	return kernel.EnterResult{}
}

func (p *pickProbe) SyscallExit(*kernel.Thread, *abi.Syscall) kernel.ExitResult {
	return kernel.ExitResult{}
}

func (p *pickProbe) WouldBlock(*kernel.Thread, *abi.Syscall) bool { return false }

func (p *pickProbe) Instr(*kernel.Thread, cpu.Request) (cpu.Result, bool, int64) {
	return cpu.Result{}, false, 0
}

func (p *pickProbe) OnSpawn(parent, child *kernel.Thread) { p.Register(child) }
func (p *pickProbe) OnExit(t *kernel.Thread)              { p.Unregister(t) }
func (p *pickProbe) OnExec(*kernel.Thread)                {}

// TestPickAllocatesNothing: Picking over and over from one pending set, two
// threads at system calls and one in compute, is Pick's steady state: each
// Runnable pick pops the queue's front and the next Pick queues that thread
// again at the back, with parallel picks between. None of it allocates.
func TestPickAllocatesNothing(t *testing.T) {
	probe := &pickProbe{Scheduler: New()}
	reg := guest.NewRegistry()
	init := func(p *guest.Proc) int {
		for i := 0; i < 2; i++ {
			p.Fork(func(c *guest.Proc) int {
				for j := 0; j < 50; j++ {
					c.Getpid()
				}
				return 0
			})
		}
		p.Fork(func(c *guest.Proc) int {
			for j := 0; j < 50; j++ {
				c.Compute(1_000)
			}
			return 0
		})
		for i := 0; i < 3; i++ {
			p.Wait()
		}
		return 0
	}
	reg.Register("init", init)
	k := kernel.Prepare(kernel.Config{Profile: machine.CloudLabC220G5(), Image: baseimg.Minimal(), Resolver: reg.Resolver()}).
		Boot(kernel.BootConfig{Seed: 1, Epoch: 1_500_000_000, Policy: probe})
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(init, img), img.Argv, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !probe.measured {
		t.Fatal("no pick saw two system call stops beside a compute burst")
	}
	if probe.allocs != 0 {
		t.Errorf("1000 steady-state Picks allocated %v times, want 0", probe.allocs)
	}
}
