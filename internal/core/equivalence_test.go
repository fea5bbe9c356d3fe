package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/machine"
)

// Equivalence properties: configuration knobs that change *performance* must
// never change *results*.

func busyProgram(p *guest.Proc) int {
	for i := 0; i < 60; i++ {
		p.WriteFile("/tmp/f", []byte{byte(i)}, 0o644)
		st, _ := p.Stat("/tmp/f")
		p.Printf("%d:%d ", st.Ino, p.Time())
		if i%7 == 0 {
			p.Fork(func(c *guest.Proc) int { c.Compute(1000); return 0 })
			p.Wait()
		}
	}
	return 0
}

func fingerprint(r *core.Result) string {
	return r.Stdout + "|" + hashdeep.HashSubtree(r.FS, "/tmp").Total()
}

func TestSeccompOnOffEquivalence(t *testing.T) {
	on := runDT(t, hostA, core.Config{}, busyProgram)
	off := runDT(t, hostA, core.Config{Off: core.Off(core.Seccomp)}, busyProgram)
	if on.Err != nil || off.Err != nil {
		t.Fatalf("runs failed: %v / %v", on.Err, off.Err)
	}
	if fingerprint(on) != fingerprint(off) {
		t.Errorf("seccomp changed results — it may only change cost (§5.11)")
	}
	if off.WallTime <= on.WallTime {
		t.Errorf("no-seccomp should be slower: %d vs %d", off.WallTime, on.WallTime)
	}
}

func TestFastVdsoEquivalenceUnderLoad(t *testing.T) {
	prog := func(p *guest.Proc) int {
		for i := 0; i < 100; i++ {
			p.Printf("%d.", p.VdsoNow()/1e9%1000)
		}
		return 0
	}
	slow := runDT(t, hostA, core.Config{}, prog)
	fast := runDT(t, hostA, core.Config{FastVdso: true}, prog)
	if slow.Stdout != fast.Stdout {
		t.Errorf("FastVdso changed values")
	}
}

// Pre-4.8 kernels lack the combined seccomp/ptrace stop, so every
// intercepted call costs two stops (§5.11): same results, more time.
func TestPre48KernelFallbackSlower(t *testing.T) {
	legacy := host{machine.LegacySandyBridge(), 0x600D, 1_450_000_000, 0}
	modern := hostA
	l := runDT(t, legacy, core.Config{}, busyProgram)
	m := runDT(t, modern, core.Config{}, busyProgram)
	if l.Err != nil || m.Err != nil {
		t.Fatalf("runs failed: %v / %v", l.Err, m.Err)
	}
	// Results identical across the kernel generations...
	if fingerprint(l) != fingerprint(m) {
		t.Errorf("kernel generation changed results")
	}
	// ...but the old kernel pays double stops.
	if l.Tracer.Stops <= m.Tracer.Stops {
		t.Errorf("pre-4.8 fallback should take more stops: %d vs %d", l.Tracer.Stops, m.Tracer.Stops)
	}
	if l.WallTime <= m.WallTime {
		t.Errorf("pre-4.8 fallback should be slower: %d vs %d", l.WallTime, m.WallTime)
	}
}

// Debug tracing must be behaviour-free.
func TestDebugTracingEquivalence(t *testing.T) {
	quiet := runDT(t, hostA, core.Config{}, busyProgram)
	noisy := runDT(t, hostA, core.Config{Debug: func(string, ...any) {}}, busyProgram)
	if fingerprint(quiet) != fingerprint(noisy) {
		t.Errorf("debug tracing changed results")
	}
}
