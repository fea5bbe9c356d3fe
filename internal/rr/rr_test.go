package rr_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/rr"
)

// record runs prog under the recorder with the given host seed.
func record(t *testing.T, seed uint64, prog guest.Program) (*kernel.Kernel, *rr.Trace, error) {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	rec := rr.NewRecorder(true)
	k := kernel.Prepare(kernel.Config{
		Profile: machine.CloudLabC220G5(), Image: baseimg.Minimal(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: seed, Epoch: 1_500_000_000, Policy: rec,
	})
	rec.Attach(k)
	img := &kernel.ExecImage{Path: "/bin/main", Argv: []string{"main"}}
	k.Start(reg.Bind(prog, img), img.Argv, nil)
	return k, rec.Trace, k.Run()
}

// nondetProg observes time and randomness — the inputs rr must capture.
func nondetProg(p *guest.Proc) int {
	buf := make([]byte, 8)
	p.GetRandom(buf)
	p.Printf("t=%d r=%x pid=%d\n", p.Time(), buf, p.Getpid())
	return 0
}

func TestRecordCapturesNondeterminism(t *testing.T) {
	k, trace, err := record(t, 1, nondetProg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if len(trace.Events) == 0 || trace.Bytes == 0 {
		t.Fatalf("empty trace")
	}
	kinds := map[abi.Sysno]bool{}
	for _, ev := range trace.Events {
		kinds[ev.Nr] = true
	}
	for _, nr := range []abi.Sysno{abi.SysTime, abi.SysGetrandom, abi.SysGetpid} {
		if !kinds[nr] {
			t.Errorf("trace missing %v", nr)
		}
	}
	if k.Console.Stdout() == "" {
		t.Errorf("no output recorded")
	}
}

func TestRecordDoesNotDeterminize(t *testing.T) {
	a, _, _ := record(t, 1, nondetProg)
	b, _, _ := record(t, 2, nondetProg)
	if a.Console.Stdout() == b.Console.Stdout() {
		t.Errorf("rr is not supposed to normalize behaviour, only record it")
	}
}

func TestReplayReproducesRecording(t *testing.T) {
	orig, trace, err := record(t, 7, nondetProg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	// Replay on a different host: recorded inputs are fed back.
	reg := guest.NewRegistry()
	reg.Register("main", nondetProg)
	rp := rr.NewReplayer(trace)
	k := kernel.Prepare(kernel.Config{
		Profile: machine.PortabilityBroadwell(), Image: baseimg.Minimal(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: 999, Epoch: 1_999_999_999, Policy: rp,
	})
	rp.Attach(k)
	img := &kernel.ExecImage{Path: "/bin/main", Argv: []string{"main"}}
	k.Start(reg.Bind(nondetProg, img), img.Argv, nil)
	if err := k.Run(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// time and randomness must replay exactly; the pid field is process
	// bookkeeping the replayer re-executes, so compare the captured prefix.
	o, r := orig.Console.Stdout(), k.Console.Stdout()
	oPrefix := o[:strings.Index(o, "pid=")]
	rPrefix := r[:strings.Index(r, "pid=")]
	if oPrefix != rPrefix {
		t.Errorf("replay diverged:\n%q\nvs\n%q", o, r)
	}
}

func TestIoctlCrash(t *testing.T) {
	_, _, err := record(t, 3, func(p *guest.Proc) int {
		p.T.Syscall(&abi.Syscall{Num: abi.SysIoctl, Arg: [6]int64{1, 0x5413}})
		return 0
	})
	var ab *kernel.AbortError
	if !errors.As(err, &ab) || !errors.Is(ab.Err, rr.ErrUnsupportedIoctl) {
		t.Fatalf("expected the known ioctl crash, got %v", err)
	}
}

func TestRecorderSlowerThanNative(t *testing.T) {
	prog := func(p *guest.Proc) int {
		for i := 0; i < 200; i++ {
			p.WriteFile("/tmp/f", []byte("x"), 0o644)
			p.Stat("/tmp/f")
		}
		return 0
	}
	// Native run.
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	k := kernel.Prepare(kernel.Config{
		Profile: machine.CloudLabC220G5(), Image: baseimg.Minimal(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: 4, Epoch: 1_500_000_000,
	})
	img := &kernel.ExecImage{Path: "/bin/main", Argv: []string{"main"}}
	k.Start(reg.Bind(prog, img), img.Argv, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	native := k.Now()
	rk, _, err := record(t, 4, prog)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Now() <= native*2 {
		t.Errorf("recording overhead too low: native %d vs rr %d", native, rk.Now())
	}
}
