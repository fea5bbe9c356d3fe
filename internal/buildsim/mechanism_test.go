package buildsim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
)

// normalise zeroes, in a copy of outs, exactly what a row with contract m may
// move when switched off.
func normalise(outs []Out, m core.Moves) []Out {
	c := append([]Out(nil), outs...)
	for i := range c {
		if m >= core.MovesVirtualTime {
			c[i].DTTime, c[i].Slowdown = 0, 0
			c[i].Events.WsForks, c[i].Events.WsMerges = 0, 0
		}
		if m == core.MovesTracerCounts {
			c[i].Events = Events{}
		}
	}
	return c
}

// mechanismSample is the farm's equivalence sample: the memoized seed-1
// reference (Jobs 8, every row on) through pkg-00017, the first threaded
// package that completes under DetTrace, less the busy-waiting pkg-00010,
// whose abort costs more host time than the other seventeen together.
func mechanismSample(t *testing.T) ([]*debpkg.Spec, []Out) {
	ref, _ := aggregateSample(t)
	var specs []*debpkg.Spec
	var want []Out
	threaded := false
	for _, out := range ref[:18] {
		if out.Spec.Name == "pkg-00010" {
			continue
		}
		out.Index = len(specs)
		specs = append(specs, out.Spec)
		want = append(want, out)
		threaded = threaded || out.Threaded && out.DT == Reproducible
	}
	if !threaded {
		t.Fatal("sample has no completing threaded package: the workspace row would test nothing")
	}
	return specs, want
}

// checkMechanismCells builds the sample with the rows in off switched off, at
// Jobs 1 and 16 and on distributed farms of 1 and 3 nodes. Each cell's
// BuildAll must equal the reference up to exactly what the off row's contract
// (moves) lets move, land in input order, and take the setup path the row
// says. A deadline rescue (see rescue) is reported and counted, not compared.
func checkMechanismCells(t *testing.T, off core.Mechanisms, moves core.Moves) {
	specs, want := mechanismSample(t)
	wantN := normalise(want, moves)
	shapes := []struct {
		name string
		set  func(*Options)
	}{
		{"jobs=1", func(f *Options) { f.Jobs = 1 }},
		{"jobs=16", func(f *Options) { f.Jobs = 16 }},
		{"nodes=1", func(f *Options) { f.Farm.Nodes = 1 }},
		{"nodes=3", func(f *Options) { f.Farm.Nodes = 3 }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel() // single-worker cells leave a core idle
			o := &Options{Seed: 1, Off: off}
			shape.set(o)
			if st := o.SetupStats(); st != (SetupStats{}) {
				t.Fatalf("a fresh farm carries setup state: %+v", st)
			}
			got := o.BuildAll(specs, nil)
			for i, out := range got {
				if out.Index != i || out.Spec != specs[i] {
					t.Fatalf("out %d is Index %d (%s): not in input order", i, out.Index, out.Spec.Name)
				}
			}
			gotN := normalise(got, moves)
			rescues := 0
			for i := range gotN {
				if rescue(moves, want[i].DT == Reproducible || want[i].DT == Irreproducible, got[i].DT) {
					t.Logf("%s: deadline rescue (times out off, completes in %.1f s on)", specs[i].Name, float64(want[i].DTTime)/1e9)
					rescues++
					continue
				}
				if !reflect.DeepEqual(gotN[i], wantN[i]) {
					t.Errorf("%s moved beyond its contract:\n got %+v\nwant %+v", specs[i].Name, got[i], want[i])
				}
				// A performance mechanism never buys virtual time by being
				// off, and workspaces touch only threaded builds' clocks.
				if want[i].DT != Reproducible {
					continue
				}
				if got[i].DTTime < want[i].DTTime {
					t.Errorf("%s built faster with the mechanism off: %d vs %d", specs[i].Name, got[i].DTTime, want[i].DTTime)
				}
				if off.Has(core.Workspaces) && !want[i].Threaded && got[i].DTTime != want[i].DTTime {
					t.Errorf("single-threaded %s DTTime moved: %d vs %d", specs[i].Name, got[i].DTTime, want[i].DTTime)
				}
			}
			if rescues > 0 {
				t.Logf("%d of %d packages are deadline rescues", rescues, len(specs))
			}
			// The distributed farm's hits are the coordinator's state
			// fetches, not the local template store's.
			st := o.SetupStats()
			switch cold := off.Has(core.TemplateReuse); {
			case cold && (st.ForkBoots != 0 || st.ColdBoots == 0):
				t.Errorf("%d forked, %d cold boots; want every boot cold", st.ForkBoots, st.ColdBoots)
			case !cold && (st.ColdBoots != 0 || st.ForkBoots == 0 || o.Farm.Nodes == 0 && st.TemplateHits == 0):
				t.Errorf("%d forked, %d cold boots, %d template hits; want every boot forked and hits", st.ForkBoots, st.ColdBoots, st.TemplateHits)
			}
		})
	}
}

// checkMechanismRow is checkMechanismCells with row m alone switched off.
func checkMechanismRow(t *testing.T, m core.Mechanism) {
	if m.Breaks() != "" {
		t.Fatalf("%s is a determinization rule, not a performance mechanism", m)
	}
	checkMechanismCells(t, core.Off(m), m.Moves())
}

// ownRowTests are the performance rows with a named test of their own below;
// TestMechanismMatrix covers the rest.
var ownRowTests = map[core.Mechanism]bool{
	core.Workspaces:    true, // TestBuildAllWorkspaceIndependence
	core.TemplateReuse: true, // TestFarmTemplateEquivalence
	core.Observability: true, // TestFarmObservabilityEquivalence
}

// TestBuildAllJobsIndependence is the farm's core contract, the matrix's
// all-on row: with every row on, the sample built with one worker, sixteen,
// and on one or three nodes is bitwise the reference and lands in input
// order. Scheduling must leak nothing.
func TestBuildAllJobsIndependence(t *testing.T) {
	checkMechanismCells(t, 0, core.MovesNothing)
}

// TestBuildAllWorkspaceIndependence is the workspaces row: with workspaces off
// only virtual time and the workspace counts move, single-threaded packages'
// clocks never, and threaded builds are never faster serialized.
func TestBuildAllWorkspaceIndependence(t *testing.T) {
	checkMechanismRow(t, core.Workspaces)
}

// TestFarmObservabilityEquivalence is the observability row: the flight
// recorder observes and never feeds back, so switching it off moves nothing.
func TestFarmObservabilityEquivalence(t *testing.T) {
	checkMechanismRow(t, core.Observability)
}

// TestFarmTemplateEquivalence is the template-reuse row: every boot is cold
// with the row off and forked with it on, and the outputs are bitwise equal.
func TestFarmTemplateEquivalence(t *testing.T) {
	checkMechanismRow(t, core.TemplateReuse)
}

// TestMechanismMatrix is the farm's equivalence matrix over the rest of the
// mechanism table: each performance row without a named test above, off
// alone, in every cell shape.
func TestMechanismMatrix(t *testing.T) {
	for m := range core.NumMechanisms {
		if m.Breaks() != "" || ownRowTests[m] {
			continue
		}
		t.Run(m.String()+"-off", func(t *testing.T) {
			t.Parallel()
			checkMechanismRow(t, m)
		})
	}
}

// A deadline rescue is the off build timing out where the on build
// completes, under a contract that lets virtual time move. Anything else —
// the reverse, both timing out, another failure, a row that may not move the
// clock — is not one.
func TestDeadlineRescue(t *testing.T) {
	cases := []struct {
		moves  core.Moves
		onDone bool
		off    Verdict
		want   bool
	}{
		{core.MovesTracerCounts, true, Timeout, true},
		{core.MovesVirtualTime, true, Timeout, true},
		{core.MovesTracerCounts, false, "", false}, // on times out, off completes
		{core.MovesTracerCounts, false, Timeout, false},
		{core.MovesTracerCounts, true, Unsupported, false},
		{core.MovesTracerCounts, true, Fail, false},
		{core.MovesSetup, true, Timeout, false},
		{core.MovesNothing, true, Timeout, false},
	}
	for _, c := range cases {
		if got := rescue(c.moves, c.onDone, c.off); got != c.want {
			t.Errorf("rescue(%d, on done %v, off %q) = %v, want %v", c.moves, c.onDone, c.off, got, c.want)
		}
	}
}
