package kernel

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// scanBurst is scheduleBurst as it was before the core tree: a linear scan
// for the first core whose load is strictly smaller than every earlier one's.
// It is the reference the tree must reproduce pick for pick.
func scanBurst(clock, d int64, cores []int64, token *int64, serialized bool, nthreads int) (int64, int) {
	start := clock
	core := 0
	for i := 1; i < len(cores); i++ {
		if cores[i] < cores[core] {
			core = i
		}
	}
	if cores[core] > start {
		start = cores[core]
	}
	if serialized && nthreads > 1 && *token > start {
		start = *token
	}
	end := start + d
	cores[core] = end
	if serialized {
		*token = end
	}
	return end, core
}

// TestCoreTreeMatchesScan drives generated burst sequences through
// scheduleBurst and the scan on 1 to 40 cores. Clocks and durations are
// coarse multiples of 100 ns, so many cores tie on load and the tie-break
// decides most picks. Every pick, completion time and core load must match;
// a tree rebuilt from the loads mid-sequence, as Resume builds one, must
// keep matching too.
func TestCoreTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	for n := 1; n <= 40; n++ {
		cores, ref := make([]int64, n), make([]int64, n)
		tree := newCoreTree(cores)
		var token, refToken int64
		for i := 0; i < 3_000; i++ {
			if i == 1_500 { // a restore: cloned loads, a tree built from them
				cores = slices.Clone(cores)
				tree = newCoreTree(cores)
			}
			clock := int64(rng.IntN(4)) * 100
			d := int64(1+rng.IntN(3)) * 100
			serialized := rng.IntN(4) == 0
			core := tree.least()
			end := scheduleBurst(clock, d, cores, tree, &token, serialized, 2)
			refEnd, refCore := scanBurst(clock, d, ref, &refToken, serialized, 2)
			if core != refCore || end != refEnd || !slices.Equal(cores, ref) || token != refToken {
				t.Fatalf("%d cores, burst %d: tree picked core %d (end %d), the scan core %d (end %d)",
					n, i, core, end, refCore, refEnd)
			}
		}
	}
}

// TestCoreTreeAllTied: with every core equally loaded the tree picks core 0,
// and with all but the last equally loaded above it, the last.
func TestCoreTreeAllTied(t *testing.T) {
	for n := 1; n <= 40; n++ {
		cores := make([]int64, n)
		for i := range cores {
			cores[i] = 500
		}
		if got := newCoreTree(cores).least(); got != 0 {
			t.Errorf("%d tied cores: picked %d, want 0", n, got)
		}
		cores[n-1] = 499
		if got := newCoreTree(cores).least(); got != n-1 {
			t.Errorf("%d cores, the last least loaded: picked %d, want %d", n, got, n-1)
		}
	}
}
