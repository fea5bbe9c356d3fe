package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
)

// The leak each ablation switch reopens is TestBreaksRowsLeak's
// (mechanism_test.go); these are the §5 edge cases around them.

func TestInodeRecyclingGetsFreshVirtualInode(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		p.WriteFile("/tmp/x", []byte("1"), 0o644)
		st1, _ := p.Stat("/tmp/x")
		p.Unlink("/tmp/x")
		// The kernel recycles the real inode; DetTrace must not reuse the
		// virtual one (§5.5).
		p.WriteFile("/tmp/y", []byte("2"), 0o644)
		st2, _ := p.Stat("/tmp/y")
		p.Printf("%d %d", st1.Ino, st2.Ino)
		if st1.Ino == st2.Ino {
			return 1
		}
		return 0
	})
	if res.ExitCode != 0 {
		t.Errorf("recycled real inode aliased a virtual inode: %s", res.Stdout)
	}
}

// TestLegacyHardwareEverySwitchOn: on pre-Ivy-Bridge hardware cpuid cannot be
// hidden even with every switch on (§5.8) — but those machines also lack
// TSX/rdrand, so well-behaved programs stay reproducible within the smaller
// machine class.
func TestLegacyHardwareEverySwitchOn(t *testing.T) {
	legacy := host{profileLegacy(), 0x111, 1_450_000_000, 0}
	prog := func(p *guest.Proc) int {
		l := p.Cpuid(7)
		p.Printf("tsx=%d rdrand-able=%v", l.Leaf.EBX&0x800, l.OK)
		if _, ok := p.Rdrand(); ok {
			p.Printf(" rdrand-worked")
		}
		return 0
	}
	res := runDT(t, legacy, core.Config{}, prog)
	if res.Err != nil {
		t.Fatalf("legacy run: %v", res.Err)
	}
	if strings.Contains(res.Stdout, "rdrand-worked") {
		t.Errorf("sandy bridge should have no rdrand: %q", res.Stdout)
	}
	// Same seed, same legacy machine: still deterministic.
	res2 := runDT(t, host{profileLegacy(), 0x999, 1_460_000_000, 0}, core.Config{}, prog)
	if res.Stdout != res2.Stdout {
		t.Errorf("legacy machine class not internally reproducible")
	}
}

// TestCriticalInstructionsEscape documents §4's finding: rdrand and TSX are
// untrappable, so an adversarial program that ignores cpuid can still
// observe irreproducibility. DetTrace's guarantee assumes well-behaved
// programs.
func TestCriticalInstructionsEscape(t *testing.T) {
	adversary := func(p *guest.Proc) int {
		// Ignore cpuid; run the instructions anyway.
		if v, ok := p.Rdrand(); ok {
			p.Printf("rdrand=%x ", v)
		}
		commits := 0
		for i := 0; i < 32; i++ {
			if p.Xbegin() {
				commits++
			}
		}
		p.Printf("tsx-commits=%d", commits)
		return 0
	}
	a := runDT(t, hostA, core.Config{}, adversary)
	b := runDT(t, host{hostA.profile, hostA.seed + 1, hostA.epoch, 0}, core.Config{}, adversary)
	if a.Stdout == b.Stdout {
		t.Skip("hardware entropy coincided; extremely unlikely")
	}
	// This asymmetry is the point: the same runs WITHOUT the critical
	// instructions are identical.
	clean := func(p *guest.Proc) int { p.Printf("t=%d", p.Time()); return 0 }
	ca := runDT(t, hostA, core.Config{}, clean)
	cb := runDT(t, host{hostA.profile, hostA.seed + 1, hostA.epoch, 0}, core.Config{}, clean)
	if ca.Stdout != cb.Stdout {
		t.Errorf("well-behaved program diverged")
	}
}
