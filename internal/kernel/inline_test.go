package kernel_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/kernel"
)

// The inline step (runAhead in handoff.go) runs a kernel loop iteration on
// the guest's coroutine when the policy hands a compute burst straight back.
// These tests run the same guest with the step and with kernel.ForceSwitch,
// and require every observable of the two runs to match.

const wordDone = 0x40

// spinFarm is the busy-wait shape: a coordinator spins on 200 ns bursts
// while three workers, at first in tied clocks with it (so the baseline
// policy draws entropy on every pick), sleep for a millisecond, write a file
// each and count themselves done. While they sleep the coordinator spins
// alone and drives the clocks. It returns the program and a pointer to the
// coordinator's spin count.
func spinFarm() (guest.Program, *int) {
	spins := new(int)
	return func(p *guest.Proc) int {
		for i := 0; i < 3; i++ {
			p.CloneThread(func(w *guest.Proc) int {
				for j := 0; j < 8; j++ {
					w.Compute(200)
					w.Getpid()
				}
				w.Nanosleep(1_000_000)
				if err := w.WriteFile(fmt.Sprintf("/tmp/w%d", w.Gettid()), []byte("done"), 0o644); err != abi.OK {
					return 1
				}
				w.Add(wordDone, 1)
				return 0
			})
		}
		for p.Load(wordDone) < 3 {
			p.Compute(200)
			*spins++
		}
		p.Printf("spun %d\n", *spins)
		return 0
	}, spins
}

// alarmSpin spins on 1 ms bursts until its SIGALRM handler, which runs a
// burst of its own, has fired.
func alarmSpin() (guest.Program, *int) {
	spins := new(int)
	return func(p *guest.Proc) int {
		fired := false
		p.Signal(abi.SIGALRM, func(c *guest.Proc, sig abi.Signal) {
			c.Compute(200)
			fired = true
			c.Printf("alarm after %d\n", *spins)
		})
		p.Alarm(1)
		for !fired {
			p.Compute(1_000_000)
			*spins++
		}
		return 0
	}, spins
}

// observed is everything a run leaves behind.
type observed struct {
	Stats   kernel.Stats
	Now     int64
	LNow    int64
	Actions int64
	Err     string
	Stdout  string
	Stderr  string
	FS      uint64
	Draw    uint64 // the host entropy pool's next draw
	Spins   int
}

func observe(k *kernel.Kernel, err error, spins int) observed {
	o := observed{
		Stats: k.Stats, Now: k.Now(), LNow: k.LNow(), Actions: k.Actions(),
		Stdout: k.Console.Stdout(), Stderr: k.Console.Stderr(),
		FS:   k.FS.SnapshotImage(k.FS.Root).Hash(),
		Draw: k.Entropy.Uint64(), Spins: spins,
	}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// runBaseline runs mk's program as init under the baseline policy.
func runBaseline(mk func() (guest.Program, *int), b kernel.BootConfig) (observed, int64) {
	prog, spins := mk()
	reg := guest.NewRegistry()
	reg.Register("init", prog)
	b.Seed, b.Epoch = 11, 1_500_000_000
	k := kernel.Prepare(kernel.Config{Profile: profFor(), Image: imgFor(), Resolver: reg.Resolver()}).Boot(b)
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(prog, img), img.Argv, nil)
	err := k.Run()
	return observe(k, err, *spins), k.Switches()
}

// runDetTrace runs mk's program under a DetTrace container; the guest hands
// its kernel out, since the container keeps it to itself.
func runDetTrace(mk func() (guest.Program, *int), cfg core.Config) (observed, int64) {
	prog, spins := mk()
	var k *kernel.Kernel
	reg := guest.NewRegistry()
	reg.Register("main", func(p *guest.Proc) int {
		k = p.T.Kernel()
		return prog(p)
	})
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	cfg.Image, cfg.Profile, cfg.HostSeed, cfg.Epoch = img, profFor(), 11, 1_500_000_000
	res := core.New(cfg).Run(reg, "/bin/main", []string{"main"}, nil)
	o := observe(k, res.Err, *spins)
	o.Stats = res.Stats
	return o, k.Switches()
}

// bothWays runs run with the inline step and then with every burst forced
// through a switch, and requires identical observables and fewer switches.
func bothWays(t *testing.T, run func() (observed, int64)) observed {
	t.Helper()
	inline, inlineSwitches := run()
	restore := kernel.ForceSwitch()
	switched, switchedSwitches := run()
	restore()
	if !reflect.DeepEqual(inline, switched) {
		t.Errorf("inline run differs from the switched run:\ninline   %+v\nswitched %+v", inline, switched)
	}
	if inlineSwitches >= switchedSwitches {
		t.Errorf("inline run switched %d times, the switched run %d: the inline step never ran",
			inlineSwitches, switchedSwitches)
	}
	return inline
}

func TestInlineStepExact(t *testing.T) {
	baseline := []struct {
		name string
		mk   func() (guest.Program, *int)
		cfg  kernel.BootConfig
		want error
	}{
		{name: "to completion", mk: spinFarm},
		{name: "HaltAtAction", mk: spinFarm, cfg: kernel.BootConfig{HaltAtAction: 1_500}, want: kernel.ErrHalted},
		{name: "HaltAtLTime", mk: spinFarm, cfg: kernel.BootConfig{HaltAtLTime: 400_000}, want: kernel.ErrHalted},
		{name: "CrashAtAction", mk: spinFarm, cfg: kernel.BootConfig{CrashAtAction: 2_000}, want: kernel.ErrInjectedCrash},
		{name: "Deadline", mk: spinFarm, cfg: kernel.BootConfig{Deadline: 500_000}, want: kernel.ErrTimeout},
		{name: "MaxActions", mk: spinFarm, cfg: kernel.BootConfig{MaxActions: 2_500}, want: kernel.ErrRunaway},
		{name: "SIGALRM", mk: alarmSpin},
	}
	for _, tc := range baseline {
		t.Run("baseline/"+tc.name, func(t *testing.T) {
			o := bothWays(t, func() (observed, int64) { return runBaseline(tc.mk, tc.cfg) })
			want := ""
			if tc.want != nil {
				want = tc.want.Error()
			}
			if o.Err != want {
				t.Errorf("run error %q, want %q", o.Err, want)
			}
			if o.Spins == 0 {
				t.Error("the run stopped before the spin started")
			}
		})
	}
	dettrace := []struct {
		name string
		cfg  core.Config
	}{
		{name: "busy-wait abort"},
		{name: "HaltAtAction", cfg: core.Config{HaltAtAction: 1_500}},
		{name: "FaultInjectCrash", cfg: core.Config{FaultInjectCrash: 2_000}},
	}
	for _, tc := range dettrace {
		t.Run("dettrace/"+tc.name, func(t *testing.T) {
			o := bothWays(t, func() (observed, int64) { return runDetTrace(spinFarm, tc.cfg) })
			if o.Spins == 0 {
				t.Error("the run stopped before the spin started")
			}
		})
	}
}

// TestInlineStepSwitchCount pins the saving itself: a thread spinning alone
// costs a constant number of switches, however long it spins.
func TestInlineStepSwitchCount(t *testing.T) {
	const bursts = 10_000
	k, err := boot(t, 3, func(p *guest.Proc) int {
		for i := 0; i < bursts; i++ {
			p.Compute(200)
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Actions(); got < bursts {
		t.Fatalf("processed %d actions, want at least %d", got, bursts)
	}
	if got := k.Switches(); got > 4 {
		t.Errorf("%d compute bursts cost %d switches, want O(1)", bursts, got)
	}
}

// TestInlineBurstAllocatesNothing: a compute burst the policy hands straight
// back runs its loop iteration on the guest's coroutine, with no switch, and
// without allocating, under the baseline policy and under DetTrace. The
// first ten thousand bursts fill DetTrace's flight-recorder ring (a
// scheduler event each), so the thousand counted are the steady state.
func TestInlineBurstAllocatesNothing(t *testing.T) {
	burst := func(p *guest.Proc) float64 {
		for range 10_000 {
			p.Compute(200)
		}
		k := p.T.Kernel()
		switches := k.Switches()
		n := testing.AllocsPerRun(1, func() {
			for range 1000 {
				p.Compute(200)
			}
		})
		if k.Switches() != switches {
			t.Errorf("%d switches during 2000 solo bursts: the inline step did not run", k.Switches()-switches)
		}
		return n
	}
	var baseline, dettrace float64
	mustRun(t, 1, func(p *guest.Proc) int {
		baseline = burst(p)
		return 0
	})
	reg := guest.NewRegistry()
	reg.Register("main", func(p *guest.Proc) int {
		dettrace = burst(p)
		return 0
	})
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	if res := core.New(core.Config{Image: img}).Run(reg, "/bin/main", []string{"main"}, nil); res.Err != nil {
		t.Fatal(res.Err)
	}
	if baseline != 0 || dettrace != 0 {
		t.Errorf("1000 inline bursts allocated %v times under the baseline policy, %v under DetTrace; want 0",
			baseline, dettrace)
	}
}
