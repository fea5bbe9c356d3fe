package core

import (
	"flag"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var quickSeed = flag.Int64("quickseed", 0, "seed for the quick.Check properties (0 draws one from the clock)")

// CheckQuick runs quick.Check on prop over at most maxCount inputs (0 keeps
// quick's default) drawn from a seeded source. Each run draws a fresh seed
// from the clock and logs it if the test fails; -quickseed replays it.
func CheckQuick(t *testing.T, prop any, maxCount int) {
	t.Helper()
	seed := *quickSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("quick.Check seed %d: replay with -quickseed %d", seed, seed)
		}
	})
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
