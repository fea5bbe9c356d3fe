package buildsim

import (
	"testing"

	"repro/internal/debpkg"
)

// Progress callbacks are serialized: strictly increasing done counts, one
// call per package, correct total — even with a parallel pool.
func TestBuildAllProgressSerialized(t *testing.T) {
	specs := debpkg.Universe(3, 24)
	prev := 0
	calls := 0
	(&Options{Seed: 5, Jobs: 8}).BuildAll(specs, func(done, total int) {
		calls++
		if done != prev+1 {
			t.Errorf("progress done=%d after %d: not strictly increasing by one", done, prev)
		}
		if total != len(specs) {
			t.Errorf("progress total=%d, want %d", total, len(specs))
		}
		prev = done
	})
	if calls != len(specs) {
		t.Errorf("progress called %d times, want %d", calls, len(specs))
	}
}

// pkgSeed is a pure function of (farm seed, spec identity).
func TestPkgSeedPure(t *testing.T) {
	a := debpkg.LLVM()
	b := debpkg.LLVM()
	if pkgSeed(1, a) != pkgSeed(1, b) {
		t.Error("same identity, same farm seed: seeds differ")
	}
	if pkgSeed(1, a) == pkgSeed(2, a) {
		t.Error("different farm seeds: seeds collide")
	}
	specs := debpkg.Universe(1, 2)
	if pkgSeed(1, specs[0]) == pkgSeed(1, specs[1]) {
		t.Error("different specs: seeds collide")
	}
}

// BuildPackage on the hand-built llvm spec exercises the full protocol with
// a known outcome: natively irreproducible (timestamps, build paths, random)
// but reproducible under DetTrace, with timing observables filled in.
func TestBuildPackageLLVM(t *testing.T) {
	o := &Options{Seed: 1}
	out := o.BuildPackage(debpkg.LLVM())
	if out.BL != Irreproducible {
		t.Errorf("BL = %s, want %s", out.BL, Irreproducible)
	}
	if out.DT != Reproducible {
		t.Errorf("DT = %s, want %s", out.DT, Reproducible)
	}
	if out.BLTime <= 0 || out.DTTime <= 0 {
		t.Errorf("times: BL %d, DT %d, want both > 0", out.BLTime, out.DTTime)
	}
	if out.SyscallRate <= 0 {
		t.Errorf("SyscallRate = %f, want > 0", out.SyscallRate)
	}
	if out.Slowdown <= 1 {
		t.Errorf("Slowdown = %f, want > 1", out.Slowdown)
	}
	if out.Events.Syscalls <= 0 || out.Events.Spawns <= 0 {
		t.Errorf("events not recorded: %+v", out.Events)
	}
}

// A broken-source package fails its baseline build and never reaches the
// DetTrace phase.
func TestBuildPackageBaselineFail(t *testing.T) {
	var spec *debpkg.Spec
	for _, s := range debpkg.Universe(1, 400) {
		if s.Class == debpkg.BLFail {
			spec = s
			break
		}
	}
	if spec == nil {
		t.Skip("no bl-fail package in the first 400")
	}
	out := (&Options{Seed: 1}).BuildPackage(spec)
	if out.BL != Fail {
		t.Errorf("BL = %s, want %s", out.BL, Fail)
	}
	if out.DT != "" {
		t.Errorf("DT = %q, want empty (baseline failed)", out.DT)
	}
}
