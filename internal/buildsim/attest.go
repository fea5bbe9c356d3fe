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
	"slices"

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
	cl := o.LastFarm()
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

// seatedQuarantined reports whether every worker plan seats as an adversary
// on a farm of the given size appears in the quarantine list. (The
// equivocating log server is not a worker: the verifier catches it, not the
// quarantine.)
func seatedQuarantined(p reprotest.FaultPlan, nodes int, quarantined []int) bool {
	for _, ord := range []int{p.LieOutput, p.CorruptAttestation, p.WithholdCosign} {
		if ord > 0 && ord <= nodes && !slices.Contains(quarantined, ord) {
			return false
		}
	}
	return true
}

// AttestStudy is the X20 Byzantine-robustness experiment: the same package
// set built under adversarial schedules x node counts x slot counts, every
// cell's admitted statement set and build output compared bitwise against
// the honest single-node reference. IdenticalOuts and IdenticalAdmitted must
// both equal Cells, something must be admitted and LiesAdmitted must be zero
// (the oracle); Caught must equal ByzantineCells (every adversary named, and
// an equivocating log replica's forged blocks rejected); the verifier must
// confirm every admitted artifact and verify no false claim. What a
// verification costs on the host clock is bench/'s farm-control row
// attest.verify_query_us.
type AttestStudy struct {
	Packages int   `json:"packages"`    // packages per cell
	Cells    int   `json:"cells"`       // farm shapes x fault schedules run
	Nodes    []int `json:"node_counts"` // node counts swept
	Slots    []int `json:"slot_counts"` // per-node slot counts swept

	IdenticalAdmitted int `json:"admitted_identical"` // cells whose admitted statement set matched
	IdenticalOuts     int `json:"outs_identical"`     // cells whose build output matched the reference
	LiesAdmitted      int `json:"lies_admitted"`      // admitted statements carrying a wrong output (must be 0)

	ByzantineCells int `json:"byzantine_cells"`  // cells whose schedule seated at least one adversary
	Caught         int `json:"byzantine_caught"` // of those, cells where every seated worker was quarantined and any equivocation caught

	Attestations        int64 `json:"attestations"`         // signed statements collected
	Rebuilds            int64 `json:"rebuilds"`             // independent re-executions solicited
	AdmitRetries        int64 `json:"admit_retries"`        // admission rounds that widened the quorum pool
	LiesDetected        int64 `json:"lies_detected"`        // valid-signature wrong-output attestations out-voted
	CorruptAttestations int64 `json:"corrupt_attestations"` // invalid-signature attestations demoted
	CosignsWithheld     int64 `json:"cosigns_withheld"`     // withheld attestations and co-signatures
	Quarantines         int64 `json:"quarantines"`          // workers named and evicted
	EpochsSealed        int64 `json:"epochs_sealed"`        // transparency-log epochs sealed and co-signed

	Admitted    int `json:"admitted"`               // admitted artifacts, summed over cells
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
		st.Admitted > 0 && st.Verified == st.Admitted &&
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
			"verifier: %d of %d admitted artifacts confirmed, %d false claims refuted, %d falsely verified, "+
			"%d forged blocks rejected, %.1f skip hops/query",
		st.Packages, st.Cells, st.Nodes, st.Slots,
		stats.Pct(st.IdenticalAdmitted, st.Cells),
		stats.Pct(st.IdenticalOuts, st.Cells), st.LiesAdmitted,
		st.ByzantineCells, stats.Pct(st.Caught, st.ByzantineCells),
		st.LiesDetected, st.CorruptAttestations, st.CosignsWithheld, st.Quarantines,
		st.Attestations, st.Rebuilds, st.AdmitRetries, st.EpochsSealed,
		st.Verified, st.Admitted, st.Refuted, st.FalsePos, st.ForgedSeen, hops)
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

// attestShape is one X20 cell's arrangement: node count, per-node slots and
// fault plan.
type attestShape struct {
	nodes, slots int
	plan         reprotest.FaultPlan
}

// attestStudy builds specs on the honest single-node single-slot attested
// farm for reference, then on every shape, and judges each cell: build
// output and admitted set against the reference's, no admitted lie, every
// seated worker quarantined and any equivocating log replica caught, every
// admitted artifact confirmed through the rebuild-free verifier — and one
// false claim pushed through it, which must come back refuted.
func (o *Options) attestStudy(specs []*debpkg.Spec, nodes, slots []int, shapes []attestShape) *AttestStudy {
	st := &AttestStudy{Packages: len(specs), Nodes: nodes, Slots: slots}
	ref := o.derive(func(f *Options) {
		f.Checkpoints, f.Farm.Attest, f.Farm.Nodes, f.Farm.Slots = true, true, 1, 1
	})
	refOuts := ref.BuildAll(specs, nil)
	refAdmitted := ref.LastFarm().AdmittedSet()
	refOutput := make(map[uint64]uint64, len(refAdmitted))
	for _, s := range refAdmitted {
		refOutput[s.Job] = s.Output
	}
	for _, sh := range shapes {
		cell := ref.derive(func(f *Options) {
			f.Farm.Nodes, f.Farm.Slots, f.Farm.Plan = sh.nodes, sh.slots, sh.plan
		})
		got := cell.BuildAll(specs, nil)
		cl := cell.LastFarm()
		st.Cells++
		if reflect.DeepEqual(got, refOuts) {
			st.IdenticalOuts++
		}
		admitted := cl.AdmittedSet()
		if reflect.DeepEqual(admitted, refAdmitted) {
			st.IdenticalAdmitted++
		}
		for _, s := range admitted {
			if want, okRef := refOutput[s.Job]; okRef && s.Output != want {
				st.LiesAdmitted++
			}
		}
		fst := cl.Stats()
		st.Attestations += fst.Attestations
		st.Rebuilds += fst.Rebuilds
		st.AdmitRetries += fst.AdmitRetries
		st.LiesDetected += fst.LiesDetected
		st.CorruptAttestations += fst.CorruptAttestations
		st.CosignsWithheld += fst.CosignsWithheld
		st.Quarantines += fst.Quarantines
		st.EpochsSealed += fst.EpochsSealed

		v := cell.AttestVerifier()
		st.Admitted += len(admitted)
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
		if sh.plan.Byzantine() {
			st.ByzantineCells++
			if seatedQuarantined(sh.plan, sh.nodes, cl.Quarantined()) &&
				(sh.plan.EquivocateEpoch == 0 || v.BadBlocks > 0) {
				st.Caught++
			}
		}
	}
	return st
}

// RunAttestStudy sweeps adversarial schedules over farm shapes: node counts
// {1,3,8} x per-node slots {1,4,16} x the five X20 fault schedules, every
// cell attested and checkpointed.
func (o *Options) RunAttestStudy(specs []*debpkg.Spec) *AttestStudy {
	nodes, slots := []int{1, 3, 8}, []int{1, 4, 16}
	var shapes []attestShape
	for _, n := range nodes {
		for _, k := range slots {
			for _, plan := range attestPlans(o.Seed, n) {
				shapes = append(shapes, attestShape{n, k, plan})
			}
		}
	}
	return o.attestStudy(specs, nodes, slots, shapes)
}

// ByzantineGate is the single-package adversarial gate behind
// `reprotest -attest -byzantine N`: the X20 study's cell for a 2N+1-node
// farm seating N simultaneous adversaries — a lying builder, an
// equivocating log server, a signature corrupter, a co-signature withholder,
// in that order (N is clamped to 1..4; 0 selects 2). The report is
// human-readable; ok is the machine verdict.
func (o *Options) ByzantineGate(spec *debpkg.Spec, n int) (report string, ok bool) {
	if n <= 0 {
		n = 2
	}
	n = min(n, 4)
	nodes := 2*n + 1
	// Seat adversaries on distinct ordinals; the equivocator is log server 1
	// so the verifier meets the forged view first.
	plan := reprotest.FaultPlan{LieOutput: 1}
	if n >= 2 {
		plan.EquivocateEpoch = 1
	}
	if n >= 3 {
		plan.CorruptAttestation = 2
	}
	if n >= 4 {
		plan.WithholdCosign = 3
	}
	st := o.attestStudy([]*debpkg.Spec{spec}, []int{nodes}, []int{o.Farm.Slots},
		[]attestShape{{nodes, o.Farm.Slots, plan}})
	return st.String(), st.OK()
}
