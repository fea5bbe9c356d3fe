package mlsim

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// The §7.6 calibration holds in the paper's configuration, which RunStudy
// runs.
func TestTensorFlowSlowdownShape(t *testing.T) {
	for _, r := range RunStudy(31) {
		t.Logf("%s: vsParallel=%.2fx vsSerial=%.2fx (par=%.0fs ser=%.0fs dt=%.0fs)",
			r.Model, r.VsParallel, r.VsSerial,
			float64(r.NativeParallel)/1e9, float64(r.NativeSerial)/1e9, float64(r.DetTrace)/1e9)
		// Workspaces recover most of the parallel speedup; alexnet pays more
		// because its 42 runtime calls per step are all merge sync points.
		if r.VsParallel < 1.5 || r.VsParallel > 9 {
			t.Errorf("%s: DT vs parallel native = %.2fx, want ~2-8x", r.Model, r.VsParallel)
		}
		// Against serialized native, 16-way DetTrace is now faster.
		if r.VsSerial < 0.1 || r.VsSerial > 0.95 {
			t.Errorf("%s: DT vs serial native = %.2fx, want <1x", r.Model, r.VsSerial)
		}
	}
	// alexnet is more syscall-intensive than cifar10, so it pays more.
	rs := RunStudy(32)
	if !(rs[0].VsSerial > rs[1].VsSerial) {
		t.Errorf("alexnet (%.2f) should pay more than cifar10 (%.2f)", rs[0].VsSerial, rs[1].VsSerial)
	}
}

// The buffered default only takes tracer cost away: each model trains no
// slower than in the paper's configuration, with the same loss trace.
func TestTensorFlowBufferedDefault(t *testing.T) {
	for _, m := range Models {
		on, lossOn, _, errOn := RunDetTraceOpt(m, 16, 34, 0)
		off, lossOff, _, errOff := RunDetTraceOpt(m, 16, 34, core.PaperDetTrace)
		if errOn != nil || errOff != nil {
			t.Fatalf("%s: %v / %v", m, errOn, errOff)
		}
		t.Logf("%s: %.1fs buffered, %.1fs unbuffered", m, float64(on)/1e9, float64(off)/1e9)
		if on > off {
			t.Errorf("%s: %d ns buffered, slower than %d ns unbuffered", m, on, off)
		}
		if lossOn != lossOff {
			t.Errorf("%s: loss trace differs with the buffer on and off", m)
		}
	}
}

// TestSerializedAblationShape pins the historical §5.7 serialized-mode
// numbers, in the paper's configuration: with the workspaces row off the whole
// parallel speedup is lost.
func TestSerializedAblationShape(t *testing.T) {
	for _, m := range Models {
		par, _ := RunNative(m, 16, 31)
		ser, _ := RunNative(m, 1, 32)
		dt, _, _, err := RunDetTraceOpt(m, 16, 33, core.PaperDetTrace|core.Off(core.Workspaces))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		vsPar := float64(dt) / float64(par)
		vsSer := float64(dt) / float64(ser)
		t.Logf("%s serialized: vsParallel=%.2fx vsSerial=%.2fx", m, vsPar, vsSer)
		if vsPar < 8 || vsPar > 25 {
			t.Errorf("%s: serialized DT vs parallel native = %.2fx, want ~10-18x", m, vsPar)
		}
		if vsSer < 1.0 || vsSer > 2.2 {
			t.Errorf("%s: serialized DT vs serial native = %.2fx, want ~1.1-1.6x", m, vsSer)
		}
	}
}

// TestWorkspaceSpeedupAndEquivalence is the X17 acceptance gate: at 4+
// threads workspaces improve DetTrace wall time at least 2x over the
// serialized ablation, while the loss trace stays bit-identical and no
// merge ever conflicts (guest FS writes are themselves sync points).
func TestWorkspaceSpeedupAndEquivalence(t *testing.T) {
	rows := RunWorkspaceSweep(77) // panics internally if traces diverge
	for _, r := range rows {
		t.Logf("%s t=%2d: ws-on=%.1fs ws-off=%.1fs speedup=%.2fx forks=%d merges=%d conflicts=%d",
			r.Model, r.Threads, float64(r.WsOn)/1e9, float64(r.WsOff)/1e9,
			r.Speedup, r.Forks, r.Merges, r.Conflicts)
		if r.Conflicts != 0 {
			t.Errorf("%s t=%d: %d merge conflicts; production guests must never conflict", r.Model, r.Threads, r.Conflicts)
		}
		if r.Threads == 1 && (r.Speedup < 0.95 || r.Speedup > 1.05) {
			t.Errorf("%s t=1: speedup %.2fx, want ~1x (nothing to overlap)", r.Model, r.Speedup)
		}
		// The standard E9 configuration (16 threads) must improve >= 2x for
		// both models. At 4 threads the compute-dominated model must too;
		// alexnet is tracer-bound there (42 serialized runtime calls per
		// step put a hard ~2x cap on its 4-thread ratio — the Fig. 6
		// syscall-rate throttling), so it only gets a floor of 1.5x.
		switch {
		case r.Threads == 16 && r.Speedup < 2.0:
			t.Errorf("%s t=16: workspace speedup %.2fx, want >= 2x", r.Model, r.Speedup)
		case r.Threads == 4 && r.Model == Cifar10 && r.Speedup < 2.0:
			t.Errorf("%s t=4: workspace speedup %.2fx, want >= 2x", r.Model, r.Speedup)
		case r.Threads == 4 && r.Model == Alexnet && r.Speedup < 1.5:
			t.Errorf("%s t=4: workspace speedup %.2fx, want >= 1.5x (tracer-bound)", r.Model, r.Speedup)
		}
		if r.Threads >= 4 && r.Forks == 0 {
			t.Errorf("%s t=%d: no workspace forks recorded", r.Model, r.Threads)
		}
	}
}

func TestLossTraceReproducibility(t *testing.T) {
	// Natively irreproducible even serialized (§7.6).
	_, a := RunNative(Alexnet, 1, 100)
	_, b := RunNative(Alexnet, 1, 200)
	if a == b {
		t.Errorf("native loss traces identical across runs — randomness model broken")
	}
	// Serialized-vs-parallel native also differ (different seed draw order
	// is not even needed; the seed itself differs per run).
	_, dt1, _, err1 := RunDetTraceOpt(Cifar10, 16, 300, 0)
	_, dt2, _, err2 := RunDetTraceOpt(Cifar10, 16, 400, 0)
	if err1 != nil || err2 != nil {
		t.Fatalf("dettrace runs failed: %v %v", err1, err2)
	}
	if dt1 != dt2 {
		t.Errorf("DetTrace loss traces differ across hosts:\n%s\nvs\n%s", head(dt1), head(dt2))
	}
	if !strings.Contains(dt1, "1,") {
		t.Errorf("loss trace malformed: %q", head(dt1))
	}
}

func head(s string) string {
	if len(s) > 120 {
		return s[:120]
	}
	return s
}
