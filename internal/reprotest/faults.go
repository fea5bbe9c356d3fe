package reprotest

import "repro/internal/prng"

// FaultPlan is one job's deterministic fault schedule. Faults are scheduled
// on the container's logical clock — an action count, a checkpoint ordinal —
// never on host time, so a plan injects the same failure at the same logical
// instant on every machine and every retry of the run. A zero plan injects
// nothing.
type FaultPlan struct {
	// CrashAtAction kills the container at the N'th kernel action (0 = no
	// crash). Plans beyond the run's natural length simply let it complete:
	// short builds deterministically dodge crashes long builds take.
	CrashAtAction int64
	// CorruptCheckpoint flips a bit in the checkpoint sealed with this
	// ordinal (0 = none), so a later restore fails validation and recovery
	// must fall back to an earlier seal or a cold replay.
	CorruptCheckpoint int
	// FailRestore makes the first restore attempt after a crash fail, to
	// exercise the bounded-retry path.
	FailRestore bool

	// The remaining events are the farm-level fault plane (internal/farm):
	// node crashes and message loss/duplication, scheduled on the farm's
	// logical clocks — accepted-job ordinals per node, message ordinals per
	// link — never on host time or goroutine interleaving.

	// KillNode names the worker ordinal (1-based) the plan kills; 0 kills no
	// node. A farm with fewer workers than KillNode deterministically dodges
	// the crash, the same way short builds dodge CrashAtAction.
	KillNode int
	// KillAtJob is the 1-based ordinal, among jobs the doomed worker
	// accepts, of the assignment that dies mid-build (the build itself is
	// killed via CrashAtAction so the seal/recovery machinery engages).
	// Defaults to 1 when KillNode is set.
	KillAtJob int
	// LoseMsg drops the transmission with this per-link message ordinal on a
	// coordinator->worker assign link (0 = none); at-least-once delivery
	// retransmits it.
	LoseMsg int64
	// DupMsg delivers the transmission with this per-link message ordinal
	// twice (0 = none); the receiver's idempotency cache absorbs the copy.
	DupMsg int64

	// The remaining events are the Byzantine fault plane (internal/attest):
	// participants that follow the protocol but lie. Each field names a node
	// ordinal (1-based worker; 0 = honest everywhere). Like every other
	// fault these are scheduled on identity and logical ordinals, never on
	// time, so the same plan seats the same adversaries on every run.

	// LieOutput makes the named worker sign a wrong output hash in every
	// attestation it emits — the classic compromised-builder attack the
	// quorum must out-vote and name.
	LieOutput int
	// CorruptAttestation makes the named worker flip bits in its signature
	// after signing, so the attestation fails keyring verification and is
	// demoted to an errored vote.
	CorruptAttestation int
	// EquivocateEpoch makes the log server with this ordinal (1-based)
	// present a tampered fork of the chain to every other query — the
	// split-view attack a collective signature exists to catch.
	EquivocateEpoch int
	// WithholdCosign makes the named worker silently drop every attestation
	// and epoch co-signature request — an availability attack on quorum
	// formation.
	WithholdCosign int
}

// Crashes reports whether the plan schedules a crash at all.
func (p FaultPlan) Crashes() bool { return p.CrashAtAction > 0 }

// crashHorizon bounds planned crash points. Simulated package builds run
// roughly 1.2k-4.5k kernel actions, so points drawn below 3000 hit most
// builds mid-flight while a fraction land beyond the end and complete.
const crashHorizon = 3000

// PlanFor derives the fault plan for one job from its seed — a pure
// function, like every schedule the farm derives, so the plan is independent
// of workers, retries and scheduling. About half of all jobs crash; of
// those, a quarter find their freshest checkpoint corrupted and a quarter
// lose their first restore attempt.
func PlanFor(seed uint64) FaultPlan {
	rng := prng.NewHost(seed ^ 0xFA017)
	var p FaultPlan
	if rng.Uint64()%2 == 0 {
		p.CrashAtAction = 1 + int64(rng.Uint64()%crashHorizon)
	}
	if rng.Uint64()%4 == 0 {
		// Builds seal a handful of checkpoints (boot plus one per phase
		// boundary); ordinals 2-4 target the mid-run seals.
		p.CorruptCheckpoint = 2 + int(rng.Uint64()%3)
	}
	if rng.Uint64()%4 == 0 {
		p.FailRestore = true
	}
	return p
}

// Byzantine reports whether the plan seats any lying participant.
func (p FaultPlan) Byzantine() bool {
	return p.LieOutput > 0 || p.CorruptAttestation > 0 || p.EquivocateEpoch > 0 || p.WithholdCosign > 0
}

// ByzantinePlanFor derives the adversarial schedule for a farm of the given
// worker count — the Byzantine slice of the fault plane, layered onto the
// same plan struct so one schedule can combine crash, transport and lying
// faults. Half of all seeds seat a lying builder; a quarter each corrupt an
// attestation, equivocate a log server, or withhold co-signatures. Distinct
// worker ordinals are drawn without replacement so one seed can seat several
// simultaneous adversaries on different nodes.
func ByzantinePlanFor(seed uint64, nodes int) FaultPlan {
	rng := prng.NewHost(seed ^ 0xB12A47)
	var p FaultPlan
	if nodes <= 0 {
		return p
	}
	pick := func() int { return 1 + int(rng.Uint64()%uint64(nodes)) }
	if rng.Uint64()%2 == 0 {
		p.LieOutput = pick()
	}
	if rng.Uint64()%4 == 0 {
		p.CorruptAttestation = pick()
		if p.CorruptAttestation == p.LieOutput {
			p.CorruptAttestation = 1 + p.CorruptAttestation%nodes
		}
	}
	if rng.Uint64()%4 == 0 {
		p.EquivocateEpoch = 1 + int(rng.Uint64()%3)
	}
	if rng.Uint64()%4 == 0 {
		p.WithholdCosign = pick()
		if p.WithholdCosign == p.LieOutput {
			p.WithholdCosign = 1 + p.WithholdCosign%nodes
		}
	}
	return p
}
