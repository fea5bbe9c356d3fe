package kernel_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/kernel"
)

// lowestClock is a minimal deterministic policy: it runs the pending thread
// with the lowest clock, the lowest TID on a tie, and lets every call run as
// issued. Unlike the baseline policy it draws no entropy, so a kernel resumed
// from a checkpoint can run it too.
type lowestClock struct{}

func (lowestClock) Name() string { return "lowest-clock" }

func (lowestClock) PickNext(k *kernel.Kernel, pending []*kernel.Thread) *kernel.Thread {
	var best *kernel.Thread
	for _, t := range pending {
		if best == nil || t.Clock < best.Clock {
			best = t
		}
	}
	return best
}

func (lowestClock) SyscallEnter(*kernel.Thread, *abi.Syscall) kernel.EnterResult {
	return kernel.EnterResult{}
}

func (lowestClock) SyscallExit(*kernel.Thread, *abi.Syscall) kernel.ExitResult {
	return kernel.ExitResult{}
}

func (lowestClock) WouldBlock(*kernel.Thread, *abi.Syscall) bool { return false }

func (lowestClock) Instr(*kernel.Thread, cpu.Request) (cpu.Result, bool, int64) {
	return cpu.Result{}, false, 0
}

func (lowestClock) OnSpawn(parent, child *kernel.Thread) {}
func (lowestClock) OnExit(*kernel.Thread)                {}
func (lowestClock) OnExec(*kernel.Thread)                {}

// pendingLog is lowestClock plus a digest of every pending set it is shown
// and every pick it makes, and a check that each set is what the policy
// contract promises: live threads in strictly increasing TID order.
type pendingLog struct {
	lowestClock
	t     *testing.T
	picks int
	sum   uint64
}

func (l *pendingLog) PickNext(k *kernel.Kernel, pending []*kernel.Thread) *kernel.Thread {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x:%d|", l.sum, len(pending))
	for i, t := range pending {
		if t.Dead() || (i > 0 && pending[i-1].TID >= t.TID) {
			l.t.Errorf("pick %d: pending set out of order or holding a dead thread", l.picks)
		}
		fmt.Fprintf(h, "%d,", t.TID)
	}
	got := l.lowestClock.PickNext(k, pending)
	if got != nil {
		fmt.Fprintf(h, "->%d", got.TID)
	}
	l.picks++
	l.sum = h.Sum64()
	return got
}

// pendingMix takes every way into and out of the pending set: forks, an
// exec, thread exits, an exit_group that kills running siblings, a
// SIGKILL'd spinner, kernel-blocked waits and sleeps, a timer signal whose
// handler computes, and a coordinator whose compute bursts run inline until
// another thread is due and the inline step declines.
func pendingMix(p *guest.Proc) int {
	p.Signal(abi.SIGVTALRM, func(c *guest.Proc, _ abi.Signal) {
		c.Compute(300)
		c.Getpid()
	})
	p.Setitimer(400_000, 0)
	spinner, err := p.Spawn("/bin/spinner", []string{"spinner"}, nil)
	if err != abi.OK {
		return 1
	}
	p.Fork(func(c *guest.Proc) int {
		for i := 0; i < 3; i++ {
			c.CloneThread(func(w *guest.Proc) int {
				for j := 0; j < 5+i*20; j++ {
					w.Compute(700)
					w.Getpid()
				}
				return 0
			})
		}
		for j := 0; j < 10; j++ {
			c.Compute(900)
		}
		c.Nanosleep(20_000)
		return 0 // exit_group: kills the siblings still running
	})
	for i := 0; i < 300; i++ {
		p.Compute(500)
	}
	p.Kill(spinner, abi.SIGKILL)
	p.Wait()
	p.Wait()
	for i := 0; i < 1_000; i++ {
		p.Compute(500)
	}
	return 0
}

func spinner(p *guest.Proc) int {
	for {
		p.Compute(1_000)
		p.Getppid()
	}
}

// runPendingMix runs pendingMix as init under pendingLog and returns the
// digest of every pending set and pick, with the run's end state.
func runPendingMix(t *testing.T) (string, int64) {
	reg := guest.NewRegistry()
	reg.Register("init", pendingMix)
	reg.Register("spinner", spinner)
	img := baseimg.Minimal()
	img.AddFile("/bin/init", 0o755, guest.MakeExe("init", nil))
	img.AddFile("/bin/spinner", 0o755, guest.MakeExe("spinner", nil))
	log := &pendingLog{t: t}
	k := kernel.Prepare(kernel.Config{Profile: profFor(), Image: img, Resolver: reg.Resolver()}).Boot(kernel.BootConfig{
		Seed: 44, Epoch: 1_500_000_000, Policy: log,
	})
	guest.Start(k, "/bin/init", []string{"init"}, nil, "")
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return fmt.Sprintf("%d picks %016x now %d lnow %d actions %d",
		log.picks, log.sum, k.Now(), k.LNow(), k.Actions()), k.Switches()
}

// TestPendingSetsUnchanged: a processed thread keeps its pending slot until
// it yields again or the next pick, and this pins that the policy still
// sees exactly the pending sets the kernel showed it when every action
// removed its thread and every yield re-inserted it. The digest is that
// kernel's, and the run must match it with the inline step and without.
func TestPendingSetsUnchanged(t *testing.T) {
	const want = "1465 picks 367e02e0b22aa0dd now 831524 lnow 831500 actions 1465"
	inline, inlineSwitches := runPendingMix(t)
	restore := kernel.ForceSwitch()
	switched, switchedSwitches := runPendingMix(t)
	restore()
	if inline != want || switched != want {
		t.Errorf("pending sets and picks:\ninline   %s\nswitched %s\nwant     %s", inline, switched, want)
	}
	if inlineSwitches >= switchedSwitches {
		t.Errorf("inline run switched %d times, the switched run %d: the inline step never ran",
			inlineSwitches, switchedSwitches)
	}
}
