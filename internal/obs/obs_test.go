package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("calls")
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if got := c.Value(); got != 16005 {
		t.Fatalf("Value = %d, want 16005", got)
	}
	if r.Counter("calls") != c {
		t.Fatal("registry did not memoize counter")
	}
}

func TestPublish(t *testing.T) {
	r := NewRegistry()
	r.Publish("stops", 7)
	r.Publish("zero", 0)
	c := r.Counter("stops")
	if c.Value() != 7 {
		t.Fatalf("published counter reads %d, want 7", c.Value())
	}
	c.Add(2)
	farm := NewRegistry()
	farm.Absorb(r)
	var prom bytes.Buffer
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if got := farm.Counter("stops").Value(); got != 9 || !strings.Contains(prom.String(), "zero 0\n") {
		t.Fatalf("absorbed stops = %d, want 9; dump:\n%s", got, prom.String())
	}
}

func TestAdoptVec(t *testing.T) {
	r := NewRegistry()
	v := []int64{0, 3, 0, 2}
	cv := r.AdoptVec("sys", v)
	if cv.Len() != 4 || cv.At(1) != 3 || cv.At(3) != 2 {
		t.Fatalf("adopted vector reads %d slots, [1]=%d [3]=%d", cv.Len(), cv.At(1), cv.At(3))
	}
	if r.CounterVec("sys", 8) != cv || r.AdoptVec("sys", nil) != cv {
		t.Fatal("registry did not memoize the adopted vector")
	}
	farm := NewRegistry()
	farm.Absorb(r)
	if got := farm.CounterVec("sys", 0).At(1); got != 3 {
		t.Fatalf("absorbed sys[1] = %d, want 3", got)
	}
}

func TestAbsorb(t *testing.T) {
	farm := NewRegistry()
	farm.Counter("hits").Add(1)
	child := NewRegistry()
	child.Counter("hits").Add(4)
	child.CounterVec("sys", 4).Add(2, 9)
	farm.Absorb(child)
	farm.Absorb(nil)
	if got := farm.Counter("hits").Value(); got != 5 {
		t.Fatalf("hits = %d, want 5", got)
	}
	if got := farm.CounterVec("sys", 4).At(2); got != 9 {
		t.Fatalf("sys[2] = %d, want 9", got)
	}
}

func TestWritePromDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zeta").Add(1)
		r.Counter("alpha").Add(2)
		r.CounterVec("v", 4).Add(3, 2)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("prom dumps of equal registries differ")
	}
	out := a.String()
	for _, want := range []string{"alpha 2", "zeta 1", `v{idx="3"} 2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom dump missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatal("counters not sorted")
	}
}

func TestGather(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(1)
	r.Counter("a").Add(2)
	s := r.Gather()
	if len(s) != 2 || s[0].Name != "a" || s[1].Name != "b" {
		t.Fatalf("gather = %v", s)
	}
}

// TestAbsorbShortThenLong: vectors of one name may differ in length. The
// roll-up is sized to the longest source, whichever arrives first, and a
// vector reads zero past its end.
func TestAbsorbShortThenLong(t *testing.T) {
	short := NewRegistry()
	short.AdoptVec("sys", []int64{0, 2, 0})
	long := NewRegistry()
	long.AdoptVec("sys", []int64{0, 1, 0, 0, 0, 0, 0, 5})
	for _, order := range [][]*Registry{{short, long}, {long, short}} {
		farm := NewRegistry()
		for _, src := range order {
			farm.Absorb(src)
		}
		cv := farm.CounterVec("sys", 0)
		if cv.Len() != 8 || cv.At(1) != 3 || cv.At(7) != 5 {
			t.Errorf("absorbed %d slots, [1]=%d [7]=%d; want 8 slots, 3 and 5", cv.Len(), cv.At(1), cv.At(7))
		}
		var prom bytes.Buffer
		if err := farm.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		if want := "sys{idx=\"1\"} 3\nsys{idx=\"7\"} 5\n"; !strings.HasSuffix(prom.String(), want) {
			t.Errorf("dump:\n%s\nwant it to end with\n%s", prom.String(), want)
		}
	}
	if got := short.CounterVec("sys", 0).At(7); got != 0 {
		t.Errorf("a 3-slot vector reads %d at 7, want 0", got)
	}
	if got := short.CounterVec("sys", 0).At(-1); got != 0 {
		t.Errorf("a vector reads %d at -1, want 0", got)
	}
}

// TestAbsorbConcurrentGrowth: sources of different lengths absorbed at once
// lose no count while the roll-up grows (run it under -race).
func TestAbsorbConcurrentGrowth(t *testing.T) {
	farm := NewRegistry()
	var wg sync.WaitGroup
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := NewRegistry()
				v := make([]int64, 4*n)
				v[0], v[len(v)-1] = 1, 1
				src.AdoptVec("sys", v)
				farm.Absorb(src)
			}
		}(w)
	}
	wg.Wait()
	cv := farm.CounterVec("sys", 0)
	if cv.Len() != 32 || cv.At(0) != 400 {
		t.Fatalf("roll-up: %d slots, [0]=%d; want 32 slots and 400", cv.Len(), cv.At(0))
	}
	for n := 1; n <= 8; n++ {
		if got := cv.At(4*n - 1); got != 50 {
			t.Errorf("[%d] = %d, want 50", 4*n-1, got)
		}
	}
}
