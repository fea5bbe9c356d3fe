package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
)

// TestResumeFromEverySealLeaksNothing resumes the chain workload from each of
// its seals — to completion, and into a second stop — and then requires every
// guest goroutine of every container involved to be gone: a stopped kernel
// pins nothing, so the cost of recovery does not grow with the number of
// recoveries (DESIGN.md §2, the teardown contract).
func TestResumeFromEverySealLeaksNothing(t *testing.T) {
	want := bitwise(t, refChain(t, hostA))
	leaked := leakcheck.Goroutines(t)

	var seals []*core.Checkpoint
	cfg := chainConfig(hostA)
	cfg.CheckpointSink = func(cp *core.Checkpoint) { seals = append(seals, cp) }
	if res := runChain(cfg); res.Err != nil {
		t.Fatalf("sealing run: %v", res.Err)
	}
	if len(seals) < lastStage {
		t.Fatalf("chain sealed %d checkpoints, want at least %d", len(seals), lastStage)
	}
	for _, cp := range seals {
		res, err := core.Resume(cp, chainRegistry(), discardSink(chainConfig(hostA)))
		if err != nil {
			t.Fatalf("resume from seal %d: %v", cp.Ordinal(), err)
		}
		if got := bitwise(t, res); got != want {
			t.Errorf("seal %d: resumed != uninterrupted", cp.Ordinal())
		}
		stops := map[string]func(*core.Config){
			"crash": func(c *core.Config) { c.FaultInjectCrash = cp.Actions() + 9 },
			"halt":  func(c *core.Config) { c.HaltAtAction = cp.Actions() + 9 },
		}
		for name, stop := range stops {
			scfg := discardSink(chainConfig(hostA))
			stop(&scfg)
			res, err := core.Resume(cp, chainRegistry(), scfg)
			if err != nil {
				t.Fatalf("resume from seal %d into a %s: %v", cp.Ordinal(), name, err)
			}
			if !res.Halted && !errors.Is(res.Err, kernel.ErrInjectedCrash) {
				t.Errorf("seal %d: the %s did not stop the resumed run (err %v)", cp.Ordinal(), name, res.Err)
			}
		}
	}
	leaked()
}

// TestTeardownDeferredGuestCallsTouchNothing kills a DetTrace container whose
// guest threads leave deferred calls behind — one the in-tracee buffer would
// service without a stop (getpid), one that needs the tracer (unlink). The
// killed run must be indistinguishable from the same guest without the
// defers: the unwind reached neither the buffer nor the kernel.
func TestTeardownDeferredGuestCallsTouchNothing(t *testing.T) {
	worker := func(deferred bool) guest.Program {
		return func(p *guest.Proc) int {
			if deferred {
				defer p.Unlink("/tmp/keep")
				defer p.Getpid()
			}
			for {
				p.Compute(2_000)
				p.Getpid()
			}
		}
	}
	run := func(deferred bool) *core.Result {
		leaked := leakcheck.Goroutines(t)
		res := runDT(t, hostA, core.Config{FaultInjectCrash: 400}, func(p *guest.Proc) int {
			p.WriteFile("/tmp/keep", []byte("x"), 0o644)
			p.Fork(worker(deferred))
			return worker(deferred)(p)
		})
		leaked()
		if !errors.Is(res.Err, kernel.ErrInjectedCrash) {
			t.Fatalf("crash did not fire: %v", res.Err)
		}
		return res
	}
	if with, without := bitwise(t, run(true)), bitwise(t, run(false)); with != without {
		t.Errorf("a killed guest's deferred calls were serviced\n with: %.300s\nwithout: %.300s", with, without)
	}
}
