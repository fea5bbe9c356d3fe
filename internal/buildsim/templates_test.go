package buildsim

import (
	"reflect"
	"testing"

	"repro/internal/debpkg"
)

// tmplSample sizes the template-equivalence farm: the acceptance floor is
// 120 packages, and debpkg.Universe keeps the class proportions for any
// prefix.
const tmplSample = 120

// The farm-level template contract: BuildAll's output — per-package verdicts,
// virtual times, tracer events, the Table 1/2 and Fig. 5 aggregates — is
// bitwise identical with templates on and off, at any Jobs, despite the
// hit/miss and eviction order changing with scheduling.
func TestFarmTemplateEquivalence(t *testing.T) {
	specs := debpkg.Universe(3, tmplSample)
	cold := (&Options{Seed: 3, Jobs: 4, DisableTemplates: true}).BuildAll(specs, nil)
	coldRep := Aggregate(cold)
	for _, jobs := range []int{1, 4, 16} {
		o := &Options{Seed: 3, Jobs: jobs}
		warm := o.BuildAll(specs, nil)
		if !reflect.DeepEqual(warm, cold) {
			for i := range warm {
				if !reflect.DeepEqual(warm[i], cold[i]) {
					t.Fatalf("jobs=%d: package %s diverged under template reuse:\nwarm: %+v\ncold: %+v",
						jobs, specs[i].Name, warm[i], cold[i])
				}
			}
		}
		warmRep := Aggregate(warm)
		for name, pair := range map[string][2]string{
			"table1":      {warmRep.Table1Top(), coldRep.Table1Top()},
			"table2":      {warmRep.Table2String(), coldRep.Table2String()},
			"fig5":        {warmRep.Fig5Summary(), coldRep.Fig5Summary()},
			"unsupported": {warmRep.UnsupportedBreakdown(), coldRep.UnsupportedBreakdown()},
		} {
			if pair[0] != pair[1] {
				t.Errorf("jobs=%d: %s aggregate diverged under template reuse", jobs, name)
			}
		}
		st := o.SetupStats()
		if st.ForkBoots == 0 || st.ColdBoots != 0 {
			t.Errorf("jobs=%d: expected all boots forked, got %d forked / %d cold", jobs, st.ForkBoots, st.ColdBoots)
		}
		if st.TemplateHits == 0 {
			t.Errorf("jobs=%d: template cache never hit across %d packages", jobs, len(specs))
		}
	}
	if st := (&Options{Seed: 3, Jobs: 4, DisableTemplates: true}).SetupStats(); st != (SetupStats{}) {
		t.Errorf("fresh options carries setup state")
	}
}

// Back-to-back builds from one farm — the second package forks the very
// template the first one booted — must equal two cold builds: nothing a
// build does may leak back into the shared prepared state.
func TestTemplateBackToBackLeakFreedom(t *testing.T) {
	specs := debpkg.Universe(9, 6)
	for _, jobs := range []int{1, 4, 16} {
		warm := &Options{Seed: 9, Jobs: jobs}
		cold := &Options{Seed: 9, Jobs: jobs, DisableTemplates: true}
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
	cold := (&Options{Seed: 5, Jobs: 8, DisableTemplates: true}).BuildAll(specs, nil)
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

	cold := &Options{Seed: 7, Jobs: 4, DisableTemplates: true}
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
