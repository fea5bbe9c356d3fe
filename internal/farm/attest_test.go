package farm

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/attest"
	"repro/internal/derive"
	"repro/internal/obs"
	"repro/internal/reprotest"
)

// attestExec is toyExec plus the statement an attested build fills in: a
// pure function of the job's declared inputs, like every honest build's.
func attestExec(ctx *ExecCtx) (uint64, error) {
	digest, err := toyExec(ctx)
	if err == nil {
		ctx.Attest = attestSubject(ctx.Job)
	}
	return digest, err
}

func attestSubject(j Job) attest.Statement {
	return attest.Statement{
		Subject: derive.Key{Image: obs.DigestU64(0x50c3, j.Image), Config: j.Config},
		Ring:    obs.DigestU64(0x4196, j.ID, j.Image),
	}
}

// sigCall is the whole signed tuple of one signature check.
type sigCall struct {
	st      attest.Statement
	builder int32
	role    attest.Role
	sig     string
}

// countingChecker counts the plane's signature checks per signed tuple.
// admitJob runs concurrently across jobs, so it locks.
type countingChecker struct {
	inner attest.Checker
	mu    sync.Mutex
	calls map[sigCall]int
}

func (c *countingChecker) Verify(a attest.Attestation) bool {
	c.mu.Lock()
	c.calls[sigCall{a.Statement, a.Builder, a.Role, string(a.Sig)}]++
	c.mu.Unlock()
	return c.inner.Verify(a)
}

// attestCounters is the slice of Stats the attestation plane owns.
type attestCounters struct {
	Attestations, Rebuilds, AdmitRetries int64
	LiesDetected, CorruptAttestations    int64
	CosignsWithheld, Quarantines         int64
}

func countersOf(st Stats) attestCounters {
	return attestCounters{
		Attestations: st.Attestations, Rebuilds: st.Rebuilds, AdmitRetries: st.AdmitRetries,
		LiesDetected: st.LiesDetected, CorruptAttestations: st.CorruptAttestations,
		CosignsWithheld: st.CosignsWithheld, Quarantines: st.Quarantines,
	}
}

// TestAttestPlaneChecksEachSignatureOnce drives the attestation plane over a
// pure stub executor — no kernel — under honest, Byzantine and crash
// schedules. Every job shares one placement affinity, so one worker serves
// at a time and every counter is a pure function of the plan. For each plan
// it pins the admitted set (always every job's honest statement), the
// plane's Stats counters and the quarantined ordinals, and it counts the
// signature checks behind admission: each delivered attestation is checked
// exactly once — across admission retries, the arbiter and the census.
func TestAttestPlaneChecksEachSignatureOnce(t *testing.T) {
	const n = 8
	jobs := make([]Job, n)
	for i := range jobs {
		img := uint64(0xABC000 + i%3)
		jobs[i] = Job{ID: uint64(i + 1), Affinity: 0xAFF, Image: img, Config: 0xC0F + uint64(i%2)}
	}
	var want []attest.Statement
	for _, j := range jobs {
		st := attestSubject(j)
		st.Job = j.ID
		st.Output = obs.DigestU64(j.ID, j.Image, j.Config)
		want = append(want, st)
	}
	// p serves every job; q is the rebuilder a Byzantine plan seats.
	p := Place(1, 0xAFF, []int{1, 2, 3})
	q := 1
	if q == p {
		q = 2
	}

	cases := []struct {
		name        string
		nodes       int
		plan        reprotest.FaultPlan
		counters    attestCounters
		quarantined []int
	}{
		// Each job: p's claim plus both other workers' rebuilds.
		{"honest", 3, reprotest.FaultPlan{},
			attestCounters{Attestations: 3 * n, Rebuilds: 2 * n}, nil},
		// p lies on job 1 and is out-voted and quarantined; its queue moves
		// to a survivor, whose jobs take the coordinator as second rebuilder.
		{"lying primary", 3, reprotest.FaultPlan{LieOutput: p},
			attestCounters{Attestations: 3 * n, Rebuilds: 2 * n, LiesDetected: 1, Quarantines: 1}, []int{p}},
		{"corrupt rebuilder", 3, reprotest.FaultPlan{CorruptAttestation: q},
			attestCounters{Attestations: 3 * n, Rebuilds: 2 * n, CorruptAttestations: 1, Quarantines: 1}, []int{q}},
		// q answers job 1's rebuild without a signature: one vote fewer.
		{"withholding rebuilder", 3, reprotest.FaultPlan{WithholdCosign: q},
			attestCounters{Attestations: 3*n - 1, Rebuilds: 2 * n, CosignsWithheld: 1, Quarantines: 1}, []int{q}},
		// p dies on job 2, which a survivor recovers; a crash is not a
		// dissent, so nothing is quarantined.
		{"node kill", 3, reprotest.FaultPlan{KillNode: p, KillAtJob: 2, CrashAtAction: 50},
			attestCounters{Attestations: 3 * n, Rebuilds: 2 * n}, nil},
		// A lying sole worker against the coordinator's rebuild: 1-of-2 never
		// forms a quorum, so admission retries to its budget and the arbiter
		// decides; the coordinator then builds the rest alone (pools of one).
		{"lying sole worker", 1, reprotest.FaultPlan{LieOutput: 1},
			attestCounters{Attestations: n + 1, Rebuilds: 1, AdmitRetries: maxAdmitAttempts, LiesDetected: 1, Quarantines: 1}, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(Config{Nodes: tc.nodes, Slots: 1, PlacementSeed: 1, Attest: true,
				KeySeed: 7, Plan: tc.plan}, attestExec)
			chk := &countingChecker{inner: cl.at.ring, calls: map[sigCall]int{}}
			cl.at.check = chk
			if _, err := cl.Run(jobs); err != nil {
				t.Fatal(err)
			}
			if got := cl.AdmittedSet(); !reflect.DeepEqual(got, want) {
				t.Errorf("admitted set:\n got %+v\nwant %+v", got, want)
			}
			st := cl.Stats()
			if got := countersOf(st); got != tc.counters {
				t.Errorf("counters:\n got %+v\nwant %+v", got, tc.counters)
			}
			if got := cl.Quarantined(); !reflect.DeepEqual(got, tc.quarantined) {
				t.Errorf("quarantined %v, want %v", got, tc.quarantined)
			}
			if killed := int64(min(tc.plan.KillNode, 1)); st.NodeCrashes != killed {
				t.Errorf("%d node crashes, want %d", st.NodeCrashes, killed)
			}
			var checks int64
			for call, c := range chk.calls {
				checks += int64(c)
				if c != 1 {
					t.Errorf("job %d ordinal %d (%v): signature checked %d times, want once",
						call.st.Job, call.builder, call.role, c)
				}
			}
			if checks != st.Attestations {
				t.Errorf("%d signature checks for %d delivered attestations", checks, st.Attestations)
			}
			if tc.name == "honest" {
				perJob := float64(checks) / n
				t.Logf("honest farm: %.0f ed25519 verifies per admitted job", perJob)
				if perJob != 3 {
					t.Errorf("%.2f verifies per honest job, want 3 (primary + 2 rebuilders)", perJob)
				}
			}
		})
	}
}

// TestAttestCacheKeyIsWholeTuple pins the per-job cache's key: a hit needs the
// pool member's statement, builder, role and signature bytes, so a tampered
// attestation from a builder whose honest one is cached still gets a fresh
// check — and fails it.
func TestAttestCacheKeyIsWholeTuple(t *testing.T) {
	ring := attest.NewKeyring(3, 7)
	chk := &countingChecker{inner: ring, calls: map[sigCall]int{}}
	st := attestSubject(Job{ID: 1, Image: 0xABC000, Config: 0xC0F})
	honest := attest.NewSigner(2, 7).Attest(st, attest.RoleRebuilder)
	sigs := &jobSigs{check: chk}
	sigs.add(honest)
	for i := 0; i < 3; i++ {
		if !sigs.Verify(honest) {
			t.Fatal("honest attestation rejected")
		}
	}
	lie := honest
	lie.Output ^= 1
	swapped := honest
	swapped.Role = attest.RolePrimary
	flipped := honest
	flipped.Sig = append([]byte(nil), honest.Sig...)
	flipped.Sig[0] ^= 0xFF
	short := honest
	short.Sig = honest.Sig[:32]
	for name, a := range map[string]attest.Attestation{
		"other output": lie, "other role": swapped, "other signature": flipped, "short signature": short,
	} {
		if sigs.Verify(a) {
			t.Errorf("%s accepted on the honest attestation's cached verdict", name)
		}
	}
	var checks int
	for _, c := range chk.calls {
		checks += c
	}
	// One for the honest attestation, one fresh check each for the three
	// full-length forgeries; the short signature fails without one.
	if checks != 4 {
		t.Errorf("%d signature checks, want 4", checks)
	}
}
