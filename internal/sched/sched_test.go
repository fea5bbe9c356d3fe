package sched

import (
	"testing"

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
