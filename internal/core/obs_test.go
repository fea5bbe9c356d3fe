package core_test

import (
	"bytes"
	"testing"

	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/machine"
	"repro/internal/obs"
)

// The deterministic-observation contract (DESIGN.md §4c): recording is
// behaviour-free, and the recording itself is a pure function of container
// inputs.

// obsProgram exercises every recorded event class: traced syscalls, buffered
// calls, entropy draws, rdtsc traps, threads for scheduler decisions.
func obsProgram(p *guest.Proc) int {
	var buf [16]byte
	for i := 0; i < 20; i++ {
		p.WriteFile("/tmp/f", []byte{byte(i)}, 0o644)
		p.Stat("/tmp/f")
		p.Printf("%d:%d ", p.Time(), p.Rdtsc())
		if i%5 == 0 {
			p.GetRandom(buf[:])
			p.Printf("%x ", buf[:4])
		}
		if i%9 == 0 {
			p.Fork(func(c *guest.Proc) int { c.Compute(500); return 0 })
			p.Wait()
		}
	}
	return 0
}

// Recorder on vs off: guest-visible state must be bit-identical, and so must
// the modeled times — the recorder charges no virtual cost at all.
func TestObservabilityOnOffEquivalence(t *testing.T) {
	on := runDT(t, hostA, core.Config{}, obsProgram)
	off := runDT(t, hostA, core.Config{Off: core.Off(core.Observability)}, obsProgram)
	if on.Err != nil || off.Err != nil {
		t.Fatalf("runs failed: %v / %v", on.Err, off.Err)
	}
	if fingerprint(on) != fingerprint(off) {
		t.Errorf("the flight recorder changed results — observation must be behaviour-free")
	}
	if on.WallTime != off.WallTime {
		t.Errorf("the flight recorder changed modeled time: %d vs %d", on.WallTime, off.WallTime)
	}
	if len(on.Events) == 0 || on.Trace.Total() == 0 {
		t.Errorf("recorder on produced no events")
	}
	if len(off.Events) != 0 || off.Trace.Total() != 0 {
		t.Errorf("observability off still recorded %d events", off.Trace.Total())
	}
}

// The ring itself is deterministic: same (image, config, machine profile)
// across different host accidents ⇒ byte-identical MarshalBinary output.
func TestRecorderRingByteIdentical(t *testing.T) {
	h1 := host{machine.CloudLabC220G5(), 0xAAAA, 1_520_000_000, 0}
	h2 := host{machine.CloudLabC220G5(), 0x1234, 1_599_999_999, 0}
	a := runDT(t, h1, core.Config{}, obsProgram)
	b := runDT(t, h2, core.Config{}, obsProgram)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if !bytes.Equal(a.Trace.MarshalBinary(), b.Trace.MarshalBinary()) {
		if d := obs.FirstDivergence(a.Events, b.Events); d != nil {
			t.Fatalf("rings differ across host accidents:\n%s", d)
		}
		t.Fatalf("rings differ across host accidents (lengths %d vs %d)",
			len(a.Events), len(b.Events))
	}
}

// A seeded entropy perturbation is localized by the diagnoser to the exact
// first divergent event: the perturbed draw itself.
func TestFaultInjectEntropyDiagnosed(t *testing.T) {
	const inject = 2
	clean := runDT(t, hostA, core.Config{}, obsProgram)
	faulty := runDT(t, hostA, core.Config{FaultInjectEntropy: inject}, obsProgram)
	if clean.Err != nil || faulty.Err != nil {
		t.Fatalf("runs failed: %v / %v", clean.Err, faulty.Err)
	}
	// The program prints drawn bytes, so the fault is guest-visible...
	if clean.Stdout == faulty.Stdout {
		t.Errorf("entropy perturbation did not reach guest output")
	}
	// ...and the diagnoser pins it to the perturbed draw.
	d := obs.FirstDivergence(clean.Events, faulty.Events)
	if d == nil {
		t.Fatal("no divergence found between clean and fault-injected rings")
	}
	if d.A == nil || d.A.Kind != obs.KindEntropy {
		t.Fatalf("first divergence is %v, want the entropy draw", d.A)
	}
	if draw := d.A.Arg >> 32; draw != inject {
		t.Errorf("diagnoser localized draw %d, want draw %d", draw, inject)
	}
	// Everything before the perturbed draw matched: the fault is localized,
	// not smeared.
	if d.B == nil || d.B.Kind != obs.KindEntropy || d.A.LTime != d.B.LTime {
		t.Errorf("divergent events misaligned: A=%v B=%v", d.A, d.B)
	}
}

// Result.Spans names the lifecycle phases: cold boots report boot/run/flush,
// template forks report prepare/fork/run/flush.
func TestSpansCoverLifecycle(t *testing.T) {
	names := func(spans []obs.Span) map[string]bool {
		m := make(map[string]bool, len(spans))
		for _, s := range spans {
			m[s.Name] = true
		}
		return m
	}
	cold := runDT(t, hostA, core.Config{}, obsProgram)
	cn := names(cold.Spans)
	for _, want := range []string{"boot", "run", "flush"} {
		if !cn[want] {
			t.Errorf("cold run missing span %q (got %v)", want, cold.Spans)
		}
	}

	reg := guest.NewRegistry()
	reg.Register("main", obsProgram)
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	tp := core.NewTemplate(core.Config{Image: img, Profile: machine.CloudLabC220G5(),
		Deadline: 3_600_000_000_000})
	res := tp.NewContainer(core.HostRun{Seed: 0xAAAA, Epoch: 1_520_000_000}).
		Run(reg, "/bin/main", []string{"main"}, []string{"PATH=/bin"})
	if res.Err != nil {
		t.Fatalf("forked run failed: %v", res.Err)
	}
	fn := names(res.Spans)
	for _, want := range []string{"prepare", "fork", "run", "flush"} {
		if !fn[want] {
			t.Errorf("forked run missing span %q (got %v)", want, res.Spans)
		}
	}
}
