package buildsim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/reprotest"
)

// TestAttestAdmittedSetEquivalence is the attestation oracle: the admitted
// statement set and the build output are bitwise-identical across fault
// schedules x node counts x slot counts. A lie that slipped past admission,
// a quarantine that moved an output, or a schedule-impure ring digest all
// surface here as a bit difference.
func TestAttestAdmittedSetEquivalence(t *testing.T) {
	specs := debpkg.Universe(3, 2)
	ref := &Options{Seed: 7, Checkpoints: true, Distributed: true,
		Nodes: 1, NodeSlots: 1, Attest: true}
	wantOuts := ref.BuildAll(specs, nil)
	wantAdmitted := ref.AdmittedSet()
	if len(wantAdmitted) != len(specs) {
		t.Fatalf("reference admitted %d statements, want %d", len(wantAdmitted), len(specs))
	}
	for _, nodes := range []int{3, 8} {
		for _, slots := range []int{1, 4} {
			for _, plan := range []reprotest.FaultPlan{
				{},
				{LieOutput: 1},
				{LieOutput: 2, WithholdCosign: 3},
				{EquivocateEpoch: 1, CorruptAttestation: 1},
			} {
				cell := &Options{Seed: 7, Checkpoints: true, Distributed: true,
					Nodes: nodes, NodeSlots: slots, Attest: true, FarmPlan: plan}
				got := cell.BuildAll(specs, nil)
				if !reflect.DeepEqual(got, wantOuts) {
					t.Errorf("nodes=%d slots=%d plan=%+v: build output diverged", nodes, slots, plan)
				}
				if admitted := cell.AdmittedSet(); !reflect.DeepEqual(admitted, wantAdmitted) {
					t.Errorf("nodes=%d slots=%d plan=%+v: admitted set diverged\n got %+v\nwant %+v",
						nodes, slots, plan, admitted, wantAdmitted)
				}
			}
		}
	}
	// The template ablation changes how containers boot, never what they
	// are: subjects carry the real image content hash either way.
	cold := &Options{Seed: 7, Checkpoints: true, Distributed: true,
		Nodes: 3, NodeSlots: 1, Attest: true, Off: core.Off(core.TemplateReuse)}
	if got := cold.BuildAll(specs, nil); !reflect.DeepEqual(got, wantOuts) {
		t.Errorf("template ablation: build output diverged")
	}
	if admitted := cold.AdmittedSet(); !reflect.DeepEqual(admitted, wantAdmitted) {
		t.Errorf("template ablation: admitted set diverged\n got %+v\nwant %+v", admitted, wantAdmitted)
	}
	for _, st := range wantAdmitted {
		if st.Subject.Image == 0 {
			t.Errorf("job %d attested under a zero image hash", st.Job)
		}
	}
}

// TestAttestQuarantineNamesAdversaries pins that every seated Byzantine
// worker is identified and quarantined, and that honest workers never are.
func TestAttestQuarantineNamesAdversaries(t *testing.T) {
	specs := debpkg.Universe(3, 2)
	for _, tc := range []struct {
		plan  reprotest.FaultPlan
		seats []int
	}{
		{reprotest.FaultPlan{LieOutput: 1}, []int{1}},
		{reprotest.FaultPlan{CorruptAttestation: 2}, []int{2}},
		{reprotest.FaultPlan{WithholdCosign: 3}, []int{3}},
		{reprotest.FaultPlan{LieOutput: 1, WithholdCosign: 2}, []int{1, 2}},
	} {
		cell := &Options{Seed: 7, Checkpoints: true, Distributed: true,
			Nodes: 5, Attest: true, FarmPlan: tc.plan}
		cell.BuildAll(specs, nil)
		quarantined := cell.quarantinedOrds()
		if !quarantinedAll(tc.seats, quarantined) {
			t.Errorf("plan %+v: quarantined %v, want superset of %v", tc.plan, quarantined, tc.seats)
		}
		for _, ord := range quarantined {
			seated := false
			for _, s := range tc.seats {
				if ord == s {
					seated = true
				}
			}
			if !seated {
				t.Errorf("plan %+v: honest worker %d quarantined (quarantined=%v)", tc.plan, ord, quarantined)
			}
		}
	}
}

// TestAttestHonestFarmCleanRun pins the no-fault baseline: no lies, no
// quarantines, every job attested and admitted, epochs sealed.
func TestAttestHonestFarmCleanRun(t *testing.T) {
	specs := debpkg.Universe(4, 2)
	o := &Options{Seed: 3, Checkpoints: true, Distributed: true,
		Nodes: 3, Attest: true}
	o.BuildAll(specs, nil)
	st, ok := o.FarmStats()
	if !ok {
		t.Fatal("no farm stats after distributed run")
	}
	if st.LiesDetected != 0 || st.Quarantines != 0 || st.CorruptAttestations != 0 {
		t.Errorf("honest farm reported faults: lies=%d corrupt=%d quarantines=%d",
			st.LiesDetected, st.CorruptAttestations, st.Quarantines)
	}
	if st.Attestations == 0 || st.Rebuilds == 0 || st.EpochsSealed == 0 {
		t.Errorf("attestation plane idle: attestations=%d rebuilds=%d epochs=%d",
			st.Attestations, st.Rebuilds, st.EpochsSealed)
	}
	if got := len(o.AdmittedSet()); got != len(specs) {
		t.Errorf("admitted %d statements, want %d", got, len(specs))
	}
}

// TestAttestVerifierConfirmsAndRefutes pins the rebuild-free verifier's two
// obligations: every admitted artifact verifies from the log alone, and a
// claim the log contradicts is refuted — never verified.
func TestAttestVerifierConfirmsAndRefutes(t *testing.T) {
	specs := debpkg.Universe(3, 2)
	o := &Options{Seed: 5, Checkpoints: true, Distributed: true,
		Nodes: 3, Attest: true}
	o.BuildAll(specs, nil)
	v := o.AttestVerifier()
	if v == nil {
		t.Fatal("no verifier after attested run")
	}
	for _, s := range o.AdmittedSet() {
		vd := v.Verify(s.Subject, s.Job, s.Output)
		if !vd.OK || vd.Refuted {
			t.Errorf("job %d: admitted artifact not verified: %+v", s.Job, vd)
		}
		fd := v.Verify(s.Subject, s.Job, s.Output^0xDEAD)
		if fd.OK {
			t.Errorf("job %d: false claim verified: %+v", s.Job, fd)
		}
		if !fd.Refuted {
			t.Errorf("job %d: false claim not refuted: %+v", s.Job, fd)
		}
	}
}

// TestByzantineGate runs the reprotest -attest -byzantine gate end to end at
// every supported adversary count.
func TestByzantineGate(t *testing.T) {
	spec := debpkg.Universe(1, 1)[0]
	for n := 1; n <= 4; n++ {
		o := &Options{Seed: 9}
		report, ok := o.ByzantineGate(spec, n)
		if !ok {
			t.Errorf("ByzantineGate(n=%d) failed:\n%s", n, report)
		}
	}
}

// TestRunAttestStudySmall exercises the X20 sweep on a reduced grid via the
// full-size entry point with a tiny package set.
func TestRunAttestStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("X20 sweep is slow")
	}
	specs := debpkg.Universe(2, 1)
	o := &Options{Seed: 11}
	st := o.RunAttestStudy(specs)
	if !st.OK() {
		t.Errorf("X20 study failed its pinned claims:\n%s", st)
	}
	// The rebuild-free verifier, exactly: every admitted artifact of every
	// cell confirmed, one false claim per cell refuted, none verified.
	if st.Verified != st.Packages*st.Cells || st.Refuted != st.Cells || st.FalsePos != 0 {
		t.Errorf("verifier: %d confirmed (want %d), %d refuted (want %d), %d falsely verified",
			st.Verified, st.Packages*st.Cells, st.Refuted, st.Cells, st.FalsePos)
	}
	if st.LiesDetected == 0 {
		t.Error("X20 seated liars but detected no lies")
	}
}
