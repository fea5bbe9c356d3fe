package buildsim

import (
	"testing"

	"repro/internal/debpkg"
)

// TestWorkspaceStudySmoke runs the X17 farm study on a small sample: every
// completed package must be bitwise identical across the ablation, threaded
// packages must recover wall time, and no merge may conflict.
func TestWorkspaceStudySmoke(t *testing.T) {
	o := &Options{Seed: 11, Jobs: 8}
	st := o.RunWorkspaceStudy(debpkg.Universe(11, 24))
	t.Logf("\n%s", st)
	if st.Packages == 0 || st.Threaded == 0 {
		t.Fatalf("study built %d packages (%d threaded) — sample too small", st.Packages, st.Threaded)
	}
	if st.Identical != st.Packages {
		t.Errorf("only %d/%d packages identical across the workspace ablation", st.Identical, st.Packages)
	}
	if st.ThreadedSpeedup < 1.0 {
		t.Errorf("threaded packages slower with workspaces: %.2fx", st.ThreadedSpeedup)
	}
	if st.Conflicts != 0 {
		t.Errorf("%d merge conflicts; builds write disjoint paths and must never conflict", st.Conflicts)
	}
	if st.Threaded > 0 && st.AvgForks == 0 {
		t.Errorf("threaded packages recorded no workspace forks")
	}
}
