package kernel_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/baseimg"
	"repro/internal/guest"
	"repro/internal/kernel"
)

// stage forks children that burn unequal bursts, so the cores end up
// unequally loaded, reaps them, and execs the next stage. The execs are the
// quiescent stops a checkpoint seals at.
func stage(next string) guest.Program {
	return func(p *guest.Proc) int {
		for i := 0; i < 5; i++ {
			ns := int64(3_000 * (i + 1))
			p.Fork(func(c *guest.Proc) int {
				for j := 0; j < 4+i; j++ {
					c.Compute(ns)
				}
				return 0
			})
		}
		for i := 0; i < 5; i++ {
			p.Wait()
		}
		p.Printf("%s done at %d\n", next, p.Gettimeofday())
		if next != "" {
			p.Exec("/bin/"+next, []string{next}, nil)
			return 127
		}
		return 0
	}
}

// TestCoreChoiceSurvivesResume: a kernel resumed from a checkpoint sealed
// while its cores were unequally loaded picks the same core for every later
// burst as the uninterrupted kernel, so both end with the same loads,
// clocks and output.
func TestCoreChoiceSurvivesResume(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("one", stage("two"))
	reg.Register("two", stage("three"))
	reg.Register("three", stage(""))
	img := baseimg.Minimal()
	for _, name := range []string{"one", "two", "three"} {
		img.AddFile("/bin/"+name, 0o755, guest.MakeExe(name, nil))
	}
	snap := kernel.Prepare(kernel.Config{Profile: profFor(), Image: img, Resolver: reg.Resolver()})
	var seals []*kernel.Checkpoint
	var sealedLoads [][]int64
	k := snap.Boot(kernel.BootConfig{
		Seed: 3, Epoch: 1_500_000_000, Policy: lowestClock{},
		Checkpointer: func(cp *kernel.Checkpoint, th *kernel.Thread) {
			seals = append(seals, cp)
			cores, _ := th.Kernel().CoreLoads()
			sealedLoads = append(sealedLoads, cores)
		},
	})
	guest.Start(k, "/bin/one", []string{"one"}, nil, "")
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(seals) != 3 {
		t.Fatalf("%d seals, want one per exec (3)", len(seals))
	}
	end := func(k *kernel.Kernel) string {
		cores, lcores := k.CoreLoads()
		return fmt.Sprintf("cores %v lcores %v now %d lnow %d actions %d out %q",
			cores, lcores, k.Now(), k.LNow(), k.Actions(), k.Console.Stdout())
	}
	want := end(k)
	for i, cp := range seals[1:] {
		if loads := sealedLoads[i+1]; slices.Min(loads) == slices.Max(loads) {
			t.Fatalf("seal %d: cores equally loaded (%v), the test shows nothing", i+1, loads)
		}
		rk, _, _ := kernel.Resume(cp, kernel.BootConfig{Policy: lowestClock{}, Resolver: reg.Resolver()})
		if err := rk.Run(); err != nil {
			t.Fatalf("resumed run from seal %d: %v", i+1, err)
		}
		if got := end(rk); got != want {
			t.Errorf("resumed from seal %d:\n got %s\nwant %s", i+1, got, want)
		}
	}
}
