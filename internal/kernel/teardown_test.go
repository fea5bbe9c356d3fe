package kernel_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
)

const teardownKeep = "/tmp/keep"

// leaveDeferred is what cc's `defer p.Unlink(tmp)` looks like to the kernel:
// guest code that issues actions while the kill unwinds it. None may land.
func leaveDeferred(p *guest.Proc) func() {
	return func() {
		p.Compute(1_000)
		p.Printf("deferred\n")
		p.Unlink(teardownKeep)
	}
}

// spin never returns: a thread that is pending whenever the kernel stops.
func spin(p *guest.Proc) int {
	defer leaveDeferred(p)()
	for {
		p.Compute(50_000)
		p.Getpid()
	}
}

// park never returns either: a thread that is kernel-blocked at the stop.
func park(p *guest.Proc) int {
	defer leaveDeferred(p)()
	p.FutexWait(0x99, 0)
	return 0
}

// thenStop runs a few actions and then ends the run its own way.
func thenStop(stop func(p *guest.Proc) int) guest.Program {
	return func(p *guest.Proc) int {
		for i := 0; i < 20; i++ {
			p.Compute(50_000)
			p.Getpid()
		}
		return stop(p)
	}
}

// TestTeardownLeavesNothingBehind stops a three-thread process (under an init
// blocked in wait4) in every way Run can end. Each time the deferred guest
// actions must have had no kernel-visible effect, and every guest goroutine
// must be gone when Run returns.
func TestTeardownLeavesNothingBehind(t *testing.T) {
	errAbort := errors.New("teardown test abort")
	cases := []struct {
		name     string
		cfg      func(*kernel.Config)
		siblings [2]guest.Program
		main     guest.Program
		want     error
	}{
		{name: "sibling exit_group", siblings: [2]guest.Program{spin, park},
			main: thenStop(func(*guest.Proc) int { return 3 })},
		{name: "HaltAtAction", cfg: func(c *kernel.Config) { c.HaltAtAction = 300 },
			siblings: [2]guest.Program{spin, park}, main: spin, want: kernel.ErrHalted},
		{name: "HaltAtLTime", cfg: func(c *kernel.Config) { c.HaltAtLTime = 3_000_000 },
			siblings: [2]guest.Program{spin, park}, main: spin, want: kernel.ErrHalted},
		{name: "CrashAtAction", cfg: func(c *kernel.Config) { c.CrashAtAction = 300 },
			siblings: [2]guest.Program{spin, park}, main: spin, want: kernel.ErrInjectedCrash},
		{name: "Deadline", cfg: func(c *kernel.Config) { c.Deadline = 5_000_000 },
			siblings: [2]guest.Program{spin, park}, main: spin, want: kernel.ErrTimeout},
		{name: "MaxActions", cfg: func(c *kernel.Config) { c.MaxActions = 300 },
			siblings: [2]guest.Program{spin, park}, main: spin, want: kernel.ErrRunaway},
		{name: "deadlock", siblings: [2]guest.Program{park, park}, main: park, want: kernel.ErrDeadlock},
		{name: "Abort", siblings: [2]guest.Program{spin, park},
			main: thenStop(func(p *guest.Proc) int { p.T.Kernel().Abort(errAbort); return spin(p) }), want: errAbort},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leaked := leakcheck.Goroutines(t)
			init := func(p *guest.Proc) int {
				if err := p.WriteFile(teardownKeep, []byte("x"), 0o644); err != abi.OK {
					return 1
				}
				p.Fork(func(c *guest.Proc) int {
					c.CloneThread(tc.siblings[0])
					c.CloneThread(tc.siblings[1])
					return tc.main(c)
				})
				p.Wait()
				return 0
			}
			reg := guest.NewRegistry()
			reg.Register("init", init)
			cfg := kernel.Config{
				Profile: profFor(), Seed: 7, Epoch: 1_500_000_000,
				Image: imgFor(), Resolver: reg.Resolver(),
			}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			k := kernel.New(cfg)
			img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
			k.Start(reg.Bind(init, img), img.Argv, nil)
			if err := k.Run(); !errors.Is(err, tc.want) {
				t.Fatalf("Run = %v, want %v", err, tc.want)
			}
			leaked()
			if strings.Contains(k.Console.Stdout(), "deferred") {
				t.Errorf("a killed guest's deferred write reached the console: %q", k.Console.Stdout())
			}
			if _, err := k.FS.Resolve(fs.LookupCtx{Root: k.FS.Root, Cwd: k.FS.Root}, teardownKeep, true); err != abi.OK {
				t.Errorf("a killed guest's deferred unlink took effect: resolve %s = %v", teardownKeep, err)
			}
		})
	}
}

// TestTeardownGuestPanicSurfacesInRun: a bug in guest code panics in the
// goroutine that called Run — where a caller can recover it — and the other
// guests are stopped first.
func TestTeardownGuestPanicSurfacesInRun(t *testing.T) {
	leaked := leakcheck.Goroutines(t)
	func() {
		defer func() {
			if r := recover(); r != "guest bug" {
				t.Fatalf("recovered %v, want the guest's panic value", r)
			}
		}()
		boot(t, 8, func(p *guest.Proc) int {
			p.CloneThread(spin)
			p.CloneThread(park)
			p.Compute(50_000)
			panic("guest bug")
		})
		t.Fatal("Run returned; the guest panic was lost")
	}()
	leaked()
}
