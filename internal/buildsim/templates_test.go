package buildsim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
)

// Back-to-back builds from one farm — the second package forks the very
// template the first one booted — must equal two cold builds: nothing a
// build does may leak back into the shared prepared state.
func TestTemplateBackToBackLeakFreedom(t *testing.T) {
	specs := debpkg.Universe(9, 6)
	for _, jobs := range []int{1, 4, 16} {
		warm := &Options{Seed: 9, Jobs: jobs}
		cold := &Options{Seed: 9, Jobs: jobs, Off: core.Off(core.TemplateReuse)}
		for round := 0; round < 2; round++ {
			w := warm.BuildAll(specs, nil)
			c := cold.BuildAll(specs, nil)
			if !reflect.DeepEqual(w, c) {
				t.Fatalf("jobs=%d round %d: reused templates drifted from cold builds", jobs, round)
			}
		}
		if st := warm.SetupStats(); st.TemplateHits == 0 {
			t.Fatalf("jobs=%d: second round never hit the template cache", jobs)
		}
	}
}

// A pathologically small cache forces evictions mid-farm; results must not
// notice. Misses exceed the steady-state count and evictions fire, yet the
// output still matches the ablated farm.
func TestTemplateEvictionInvisible(t *testing.T) {
	specs := debpkg.Universe(5, 24)
	o := &Options{Seed: 5, Jobs: 8, templateCap: 2}
	warm := o.BuildAll(specs, nil)
	cold := (&Options{Seed: 5, Jobs: 8, Off: core.Off(core.TemplateReuse)}).BuildAll(specs, nil)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("evicting template cache changed farm output")
	}
	if st := o.SetupStats(); st.Evictions == 0 {
		t.Errorf("cache size 2 over %d packages produced no evictions (stats: %+v)", len(specs), st)
	}
}

// Setup accounting: the templated farm forks everything off memoized images,
// the ablated farm boots everything cold and rebuilds its image every time —
// the traffic the -templates study reports.
func TestSetupStatsAccounting(t *testing.T) {
	specs := debpkg.Universe(7, 16)
	warm := &Options{Seed: 7, Jobs: 4}
	warm.BuildAll(specs, nil)
	ws := warm.SetupStats()
	if ws.ColdBoots != 0 || ws.ForkBoots == 0 {
		t.Errorf("templated farm took cold boots: %+v", ws)
	}
	if ws.ImageHits == 0 || ws.TemplateHits == 0 {
		t.Errorf("templated farm never reused prepared state: %+v", ws)
	}

	cold := &Options{Seed: 7, Jobs: 4, Off: core.Off(core.TemplateReuse)}
	cold.BuildAll(specs, nil)
	cs := cold.SetupStats()
	if cs.ForkBoots != 0 || cs.ColdBoots == 0 || cs.TemplateHits+cs.TemplateMisses != 0 {
		t.Errorf("ablated farm forked: %+v", cs)
	}
	if cs.ImageHits != 0 {
		t.Errorf("ablated farm used the image memo: %+v", cs)
	}
}

// The study itself: every on/off pair bitwise-identical, the templated farm
// forks every boot off a few prepares, and the cold farm pays a cold boot and
// an image build every time.
func TestTemplateStudy(t *testing.T) {
	st := (&Options{Seed: 1, Jobs: 4}).RunTemplateStudy(debpkg.Universe(1, 12), 4)
	if st.Packages == 0 {
		t.Fatal("no packages completed")
	}
	if st.Identical != st.Packages {
		t.Errorf("templates changed build output: %d/%d identical", st.Identical, st.Packages)
	}
	if st.Runs != 4 {
		t.Errorf("Runs = %d, want 4", st.Runs)
	}
	if st.ColdBootsOn != 0 || st.ForkBootsOn == 0 {
		t.Errorf("templated farm: %d cold boots, %d forked, want 0 and > 0", st.ColdBootsOn, st.ForkBootsOn)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("implausible cache traffic: %d hits, %d misses", st.Hits, st.Misses)
	}
	if st.ImageBuildsOn >= st.ForkBootsOn {
		t.Errorf("templated farm built %d images for %d boots: the memo never hit", st.ImageBuildsOn, st.ForkBootsOn)
	}
	// Zero image-memo hits on the cold farm: every boot rebuilt its image.
	if st.ForkBootsOff != 0 || st.ColdBootsOff == 0 || st.ImageBuildsOff != st.ColdBootsOff {
		t.Errorf("cold farm: %d forked boots, %d cold, %d image builds, want 0 and cold == builds",
			st.ForkBootsOff, st.ColdBootsOff, st.ImageBuildsOff)
	}
	if !st.OK() {
		t.Errorf("study fails its own oracle:\n%s", st)
	}
	if st.String() == "" {
		t.Error("empty study rendering")
	}
}
