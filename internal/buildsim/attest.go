// The Byzantine-robustness driver: the attestation chain exercised end to
// end against seated adversaries, with determinism as the oracle that makes
// lying detectable at all. Because every honest builder computes the
// bit-identical statement for a job, a compromised builder's wrong claim is
// always a nameable minority — the gates below pin that the admitted artifact
// set never moves under any adversarial schedule, that every seated liar is
// identified and quarantined, and that the rebuild-free verifier confirms
// every admitted artifact and refutes every false claim from the transparency
// log alone.
package buildsim

import (
	"fmt"
	"reflect"

	"repro/internal/attest"
	"repro/internal/debpkg"
	"repro/internal/reprotest"
	"repro/internal/stats"
)

// AttestVerifier returns a rebuild-free verifier over the most recent
// distributed run's keyring and transparency-log replicas (nil before any
// attested run). The verifier answers "is this artifact the honest build of
// this source?" from the log alone — no source tree, no rebuild.
func (o *Options) AttestVerifier() *attest.Verifier {
	o.farmMu.Lock()
	cl := o.lastFarm
	o.farmMu.Unlock()
	if cl == nil || cl.Keyring() == nil {
		return nil
	}
	servers := cl.LogServers()
	clients := make([]attest.LogClient, len(servers))
	for i, s := range servers {
		clients[i] = s
	}
	return attest.NewVerifier(cl.Keyring(), clients...)
}

// AdmittedSet returns the admitted statements of the most recent distributed
// run, sorted by job (nil before any attested run) — the value the
// equivalence gates compare across fault schedules and farm shapes.
func (o *Options) AdmittedSet() []attest.Statement {
	o.farmMu.Lock()
	defer o.farmMu.Unlock()
	if o.lastFarm == nil {
		return nil
	}
	return o.lastFarm.AdmittedSet()
}

// byzantineSeats returns the worker ordinals a plan seats as adversaries
// (the equivocating log server is not a worker and is caught by the
// verifier, not the quarantine).
func byzantineSeats(p reprotest.FaultPlan, nodes int) []int {
	var seats []int
	for _, ord := range []int{p.LieOutput, p.CorruptAttestation, p.WithholdCosign} {
		if ord > 0 && ord <= nodes {
			seats = append(seats, ord)
		}
	}
	return seats
}

// quarantinedAll reports whether every seated adversary appears in the
// quarantine list.
func quarantinedAll(seats, quarantined []int) bool {
	q := make(map[int]bool, len(quarantined))
	for _, ord := range quarantined {
		q[ord] = true
	}
	for _, ord := range seats {
		if !q[ord] {
			return false
		}
	}
	return true
}

// ByzantineGate is the single-package adversarial gate behind
// `reprotest -attest -byzantine N`: build the package on an honest attested
// farm for reference, then on a farm seating N simultaneous adversaries — a
// lying builder, an equivocating log server, a signature corrupter, a
// co-signature withholder, in that order — and check that (1) the build
// output and the admitted statement set are bitwise-unchanged, (2) every
// seated Byzantine worker is identified and quarantined, (3) the rebuild-free
// verifier confirms the admitted artifact despite the equivocating replica
// (naming its forged blocks), and (4) a false claim is refuted, never
// verified. The report is human-readable; ok is the machine verdict.
func (o *Options) ByzantineGate(spec *debpkg.Spec, n int) (report string, ok bool) {
	if n <= 0 {
		n = 2
	}
	if n > 4 {
		n = 4
	}
	nodes := 2*n + 1
	var plan reprotest.FaultPlan
	// Seat adversaries on distinct ordinals; the equivocator is log server 1
	// so the verifier meets the forged view first.
	seatings := []func(*reprotest.FaultPlan){
		func(p *reprotest.FaultPlan) { p.LieOutput = 1 },
		func(p *reprotest.FaultPlan) { p.EquivocateEpoch = 1 },
		func(p *reprotest.FaultPlan) { p.CorruptAttestation = 2 },
		func(p *reprotest.FaultPlan) { p.WithholdCosign = 3 },
	}
	for _, seat := range seatings[:n] {
		seat(&plan)
	}
	specs := []*debpkg.Spec{spec}
	honest := o.derive(func(f *Options) {
		f.Checkpoints, f.Distributed, f.Attest, f.Nodes = true, true, true, nodes
	})
	want := honest.BuildAll(specs, nil)
	wantAdmitted := honest.AdmittedSet()

	faulted := honest.derive(func(f *Options) { f.FarmPlan = plan })
	got := faulted.BuildAll(specs, nil)
	gotAdmitted := faulted.AdmittedSet()

	outsOK := reflect.DeepEqual(got, want)
	admitOK := reflect.DeepEqual(gotAdmitted, wantAdmitted) && len(gotAdmitted) > 0
	seats := byzantineSeats(plan, nodes)
	quarantined := faulted.quarantinedOrds()
	caughtOK := quarantinedAll(seats, quarantined)

	v := faulted.AttestVerifier()
	verifyOK, refuteOK := true, true
	equivOK := plan.EquivocateEpoch == 0
	for _, st := range gotAdmitted {
		vd := v.Verify(st.Subject, st.Job, st.Output)
		if !vd.OK || vd.Refuted {
			verifyOK = false
		}
		if fd := v.Verify(st.Subject, st.Job, st.Output^1); fd.OK {
			refuteOK = false
		}
	}
	if plan.EquivocateEpoch > 0 && v.BadBlocks > 0 {
		equivOK = true
	}
	ok = outsOK && admitOK && caughtOK && verifyOK && refuteOK && equivOK

	st, _ := faulted.FarmStats()
	verdict := func(b bool, yes, no string) string {
		if b {
			return yes
		}
		return no
	}
	report = fmt.Sprintf(
		"farm: %d nodes, %d adversaries seated (plan %+v)\n"+
			"build output %s; admitted set (%d statements) %s\n"+
			"detection: %d lies, %d corrupt attestations, %d withheld co-signatures; "+
			"quarantined %v (seated workers %v) — %s\n"+
			"admission: %d attestations, %d rebuilds, %d retries\n"+
			"verifier: admitted artifacts %s, false claims %s, "+
			"%d forged blocks rejected (%s)",
		nodes, n, plan,
		verdict(outsOK, "bitwise-identical to the honest farm", "DIVERGED"),
		len(gotAdmitted),
		verdict(admitOK, "unchanged", "CHANGED"),
		st.LiesDetected, st.CorruptAttestations, st.CosignsWithheld,
		quarantined, seats,
		verdict(caughtOK, "all seated adversaries named", "ADVERSARY ESCAPED"),
		st.Attestations, st.Rebuilds, st.AdmitRetries,
		verdict(verifyOK, "verified", "NOT VERIFIED"),
		verdict(refuteOK, "refuted", "FALSELY VERIFIED"),
		v.BadBlocks,
		verdict(equivOK, "equivocation caught", "EQUIVOCATION MISSED"))
	return report, ok
}

// quarantinedOrds returns the most recent run's quarantined ordinals.
func (o *Options) quarantinedOrds() []int {
	o.farmMu.Lock()
	defer o.farmMu.Unlock()
	if o.lastFarm == nil {
		return nil
	}
	return o.lastFarm.Quarantined()
}

// AttestStudy is the X20 Byzantine-robustness experiment: the same package
// set built under adversarial schedules x node counts x slot counts, every
// cell's admitted statement set and build output compared bitwise against
// the honest single-node reference. IdenticalOuts and IdenticalAdmitted must
// both equal Cells and LiesAdmitted must be zero (the oracle); Caught must
// equal ByzantineCells (every adversary named); the verifier must confirm
// every admitted artifact and verify no false claim. What a verification
// costs on the host clock is bench/'s farm-control row attest.verify_query_us.
type AttestStudy struct {
	Packages int   `json:"packages"`    // packages per cell
	Cells    int   `json:"cells"`       // farm shapes x fault schedules run
	Nodes    []int `json:"node_counts"` // node counts swept
	Slots    []int `json:"slot_counts"` // per-node slot counts swept

	IdenticalAdmitted int `json:"admitted_identical"` // cells whose admitted statement set matched
	IdenticalOuts     int `json:"outs_identical"`     // cells whose build output matched the reference
	LiesAdmitted      int `json:"lies_admitted"`      // admitted statements carrying a wrong output (must be 0)

	ByzantineCells int `json:"byzantine_cells"`  // cells whose schedule seated at least one adversary
	Caught         int `json:"byzantine_caught"` // of those, cells where every seated worker was quarantined

	Attestations        int64 `json:"attestations"`         // signed statements collected
	Rebuilds            int64 `json:"rebuilds"`             // independent re-executions solicited
	AdmitRetries        int64 `json:"admit_retries"`        // admission rounds that widened the quorum pool
	LiesDetected        int64 `json:"lies_detected"`        // valid-signature wrong-output attestations out-voted
	CorruptAttestations int64 `json:"corrupt_attestations"` // invalid-signature attestations demoted
	CosignsWithheld     int64 `json:"cosigns_withheld"`     // withheld attestations and co-signatures
	Quarantines         int64 `json:"quarantines"`          // workers named and evicted
	EpochsSealed        int64 `json:"epochs_sealed"`        // transparency-log epochs sealed and co-signed

	Verified    int `json:"verified"`               // admitted artifacts the log-only verifier confirmed
	Refuted     int `json:"refuted"`                // false claims the verifier rejected with evidence
	FalsePos    int `json:"false_verified"`         // false claims verified (must be 0)
	ForgedSeen  int `json:"forged_blocks_rejected"` // forged blocks rejected by collective-signature checks
	VerifyHops  int `json:"verify_hops"`            // skipchain hops walked across all verifications
	VerifyCalls int `json:"verify_calls"`           // Verify invocations issued
}

// OK is the machine verdict over the study's pinned claims.
func (st *AttestStudy) OK() bool {
	return st.IdenticalOuts == st.Cells && st.IdenticalAdmitted == st.Cells &&
		st.LiesAdmitted == 0 && st.FalsePos == 0 &&
		st.Caught == st.ByzantineCells
}

// String renders the study summary.
func (st *AttestStudy) String() string {
	hops := 0.0
	if st.VerifyCalls > 0 {
		hops = float64(st.VerifyHops) / float64(st.VerifyCalls)
	}
	return fmt.Sprintf(
		"packages: %d x %d cells (nodes %v x slots %v x fault schedules)\n"+
			"admitted set unchanged: %s; build output unchanged: %s; lies admitted: %d\n"+
			"adversaries: %d Byzantine cells, all seated workers named in %s; "+
			"%d lies out-voted, %d corrupt signatures demoted, %d withheld, %d quarantined\n"+
			"chain: %d attestations, %d rebuilds, %d admission retries, %d epochs sealed\n"+
			"verifier: %d artifacts confirmed, %d false claims refuted, %d falsely verified, "+
			"%d forged blocks rejected, %.1f skip hops/query",
		st.Packages, st.Cells, st.Nodes, st.Slots,
		stats.Pct(st.IdenticalAdmitted, st.Cells),
		stats.Pct(st.IdenticalOuts, st.Cells), st.LiesAdmitted,
		st.ByzantineCells, stats.Pct(st.Caught, st.ByzantineCells),
		st.LiesDetected, st.CorruptAttestations, st.CosignsWithheld, st.Quarantines,
		st.Attestations, st.Rebuilds, st.AdmitRetries, st.EpochsSealed,
		st.Verified, st.Refuted, st.FalsePos, st.ForgedSeen, hops)
}

// attestPlans is the X20 fault-schedule sweep for a farm of the given size:
// the honest schedule, a lone liar, a corrupter colluding with a withholder,
// an equivocating log replica shielding a liar, and a seed-derived random
// seating. Ordinals beyond the farm deterministically dodge, the same way
// short builds dodge crash points.
func attestPlans(seed uint64, nodes int) []reprotest.FaultPlan {
	return []reprotest.FaultPlan{
		{},
		{LieOutput: 1},
		{CorruptAttestation: 1, WithholdCosign: 2},
		{EquivocateEpoch: 1, LieOutput: 2},
		reprotest.ByzantinePlanFor(seed, nodes),
	}
}

// RunAttestStudy sweeps adversarial schedules over farm shapes: node counts
// {1,3,8} x per-node slots {1,4,16} x the five X20 fault schedules, every
// cell attested and checkpointed, compared against the honest single-node
// single-slot reference. Each cell's admitted artifacts are then confirmed
// through the rebuild-free verifier — and one false claim per cell is pushed
// through it, which must come back refuted.
func (o *Options) RunAttestStudy(specs []*debpkg.Spec) *AttestStudy {
	st := &AttestStudy{Packages: len(specs),
		Nodes: []int{1, 3, 8}, Slots: []int{1, 4, 16}}

	ref := o.derive(func(f *Options) {
		f.Checkpoints, f.Distributed, f.Attest, f.Nodes, f.NodeSlots = true, true, true, 1, 1
	})
	refOuts := ref.BuildAll(specs, nil)
	refAdmitted := ref.AdmittedSet()
	refOutput := make(map[uint64]uint64, len(refAdmitted))
	for _, s := range refAdmitted {
		refOutput[s.Job] = s.Output
	}

	for _, nodes := range st.Nodes {
		for _, slots := range st.Slots {
			for _, plan := range attestPlans(o.Seed, nodes) {
				cell := ref.derive(func(f *Options) {
					f.Nodes, f.NodeSlots, f.FarmPlan = nodes, slots, plan
				})
				got := cell.BuildAll(specs, nil)
				st.Cells++
				if reflect.DeepEqual(got, refOuts) {
					st.IdenticalOuts++
				}
				admitted := cell.AdmittedSet()
				if reflect.DeepEqual(admitted, refAdmitted) {
					st.IdenticalAdmitted++
				}
				for _, s := range admitted {
					if want, okRef := refOutput[s.Job]; okRef && s.Output != want {
						st.LiesAdmitted++
					}
				}
				seats := byzantineSeats(plan, nodes)
				if plan.Byzantine() {
					st.ByzantineCells++
					if quarantinedAll(seats, cell.quarantinedOrds()) {
						st.Caught++
					}
				}
				fst, _ := cell.FarmStats()
				st.Attestations += fst.Attestations
				st.Rebuilds += fst.Rebuilds
				st.AdmitRetries += fst.AdmitRetries
				st.LiesDetected += fst.LiesDetected
				st.CorruptAttestations += fst.CorruptAttestations
				st.CosignsWithheld += fst.CosignsWithheld
				st.Quarantines += fst.Quarantines
				st.EpochsSealed += fst.EpochsSealed

				v := cell.AttestVerifier()
				for _, s := range admitted {
					vd := v.Verify(s.Subject, s.Job, s.Output)
					st.VerifyCalls++
					st.VerifyHops += vd.Hops
					if vd.OK && !vd.Refuted {
						st.Verified++
					}
				}
				if len(admitted) > 0 {
					s := admitted[0]
					fd := v.Verify(s.Subject, s.Job, s.Output^1)
					st.VerifyCalls++
					if fd.OK {
						st.FalsePos++
					} else if fd.Refuted {
						st.Refuted++
					}
				}
				st.ForgedSeen += v.BadBlocks
			}
		}
	}
	return st
}
