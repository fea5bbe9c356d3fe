// Package farm is the distributed build-farm service: a coordinator and
// worker nodes speaking a message-typed request/response protocol (proto.go)
// through one deterministic in-process transport (transport.go) that also
// carries the fault plan's message loss and duplication.
//
// The design premise is the paper's §3 purity argument at fleet scale: a
// DetTrace build is a pure function of its declared inputs, so the farm
// layer — placement, capacity, retries, message loss and duplication, node
// crashes, checkpoint recovery — must contribute nothing to any output byte.
// Determinism is the distributed-systems correctness oracle: the farm's
// output must be bitwise-independent of node count, placement seed and
// failure schedule, and internal/buildsim's farm equivalence tests gate
// exactly that.
//
// Prepared state — baseline kernel snapshots, container templates (DESIGN
// §4b) and checkpoint seals (DESIGN §4d) — lives in a content-addressed,
// sharded derivation store (shards.go) keyed by internal/derive's unified
// key schema (DESIGN §4g), so any node can fork any prepared state instead
// of cold-booting, a crashed worker's job can be recovered on another node
// from the freshest valid seal, and incremental rebuilds can reuse seals
// across the fleet.
package farm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/reprotest"
)

// Job is one unit of farm work: a package build addressed by its prepared-
// state key. ID orders and identifies the job (buildsim uses the spec
// index+1); Affinity feeds placement (buildsim uses the image content hash,
// so builds of the same image gravitate to the same node and its warm
// cache). Neither value ever reaches the build's inputs.
type Job struct {
	ID       uint64
	Affinity uint64
	Image    uint64
	Config   uint64
}

// Crash is the error an executor returns when the fault plane killed its
// build mid-flight. Wall carries the virtual time of death so the next
// attempt can account recovery latency on the virtual clock.
type Crash struct {
	Wall int64
}

func (c *Crash) Error() string {
	return fmt.Sprintf("farm: node crashed mid-build at virtual t=%dns", c.Wall)
}

// ExecCtx is everything an executor may consult about WHERE and WHY it is
// running. By the farm's purity contract none of it may influence output
// bytes: Node/Attempt exist for accounting, Doom carries the fault plan
// the schedule injects into this run, PrevWall the previous attempt's time
// of death for recovery bookkeeping. The seal and prepared-state accessors
// route through the coordinator's content-addressed store over the
// transport, so any node sees the same cache.
type ExecCtx struct {
	Node    NodeID
	Job     Job
	Attempt int
	// Doom is non-zero when the farm fault plan kills this node during this
	// job: the executor must inject it (CrashAtAction) into the build so the
	// checkpoint/seal machinery engages, and return *Crash when it fires.
	Doom reprotest.FaultPlan
	// PrevWall is the virtual time the previous attempt died at (0 on first
	// attempts).
	PrevWall int64
	// RestoredFrom is set by the executor: the seal ordinal a recovery
	// attempt restored from (0 = cold replay or no recovery). The worker
	// reports it back so the coordinator can stamp the recover event.
	RestoredFrom int
	// Rebuild marks an independent re-execution for the attestation quorum:
	// the executor must run the full build and fill Attest, but must not
	// publish its result as farm output (buildsim skips its Out store).
	Rebuild bool
	// Attest is filled by the executor when the attestation plane is on: the
	// statement's Subject (source Merkle root + behaviour-relevant config
	// hash) and logical Ring digest. Job and Output are stamped by the node
	// that signs.
	Attest attest.Statement

	w *Worker // nil when the coordinator executes inline (local fallback)
	c *Cluster
}

// ExecFunc runs one job attempt and returns the output digest, or *Crash if
// the injected fault plan killed it. Result bodies stay with the caller that
// provided the ExecFunc (buildsim keeps its Out slice in-process); the
// protocol carries digests and content addresses only.
type ExecFunc func(ctx *ExecCtx) (uint64, error)

// Config sizes and seeds a Cluster. The zero value is usable: 1 worker, 1
// slot, placement seed 0, no faults.
type Config struct {
	// Nodes is the worker-node count (minimum 1). The coordinator is not a
	// worker: Nodes=1 still exercises the full protocol on one worker.
	Nodes int
	// Slots is each worker's advertised capacity: concurrent builds per
	// node (minimum 1).
	Slots int
	// PlacementSeed selects the placement schedule. Different seeds spread
	// jobs differently across nodes; the farm equivalence gate proves the
	// choice never reaches an output byte.
	PlacementSeed uint64
	// Plan is the farm-level fault schedule (node crash, message loss and
	// duplication) plus the container-level crash plan injected into the
	// doomed worker's build.
	Plan reprotest.FaultPlan

	// Attest enables the Byzantine-robust attestation chain (DESIGN §4i):
	// every completed job is independently re-executed by two other nodes,
	// quorum-admitted with dissent naming and quarantine, and sealed into an
	// epoch-batched transparency log replicated across three log servers.
	Attest bool
	// KeySeed seeds the deterministic attestation keyring: every node's
	// ed25519 key is a pure function of (ordinal, KeySeed), so any party
	// reconstructs the ring without a distribution protocol.
	KeySeed uint64
}

// JobReport is the farm's per-job accounting: which worker completed the
// job, after how many attempts, and whether it was stolen from a dead node
// and recovered from a seal. Digest is the output digest the executor
// returned — the only field that may be compared across farm shapes.
type JobReport struct {
	Job        uint64
	Node       int // worker ordinal that completed it; 0 = coordinator fallback
	Attempts   int
	StolenFrom int    // ordinal of the dead worker it was rescued from (0 = none)
	Recovered  bool   // completed by a post-crash attempt
	SealOrd    int    // seal ordinal the recovery restored from (0 = cold)
	Digest     uint64 // executor's output digest — the only compared field
	Err        string // non-empty when the executor failed outright
}

// Cluster is one farm instance: a coordinator, Nodes workers, a transport
// between them, and a content-addressed store at the coordinator. Every
// node counts into the cluster's one Stats, each field bumped atomically in
// place, so totals are deterministic even when per-slot interleaving is
// not.
type Cluster struct {
	cfg  Config
	exec ExecFunc

	rec     *obs.Recorder // coordinator ring: assign/steal/recover events
	recMu   sync.Mutex
	recTime int64 // farm logical clock for ring stamps

	st Stats     // the farm's counts; Jobs is bumped under co.mu, the rest atomically
	tr transport // the message path every node sends through
	co *coordinator
	ws []*Worker
	at *attestPlane // nil unless cfg.Attest
}

// ringEvents caps the coordinator's flight-recorder ring.
const ringEvents = 256

// New assembles a cluster: coordinator, workers, transport, store. The
// executor runs on whichever node a job lands on.
func New(cfg Config, exec ExecFunc) *Cluster {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Plan.KillNode > 0 && cfg.Plan.KillAtJob < 1 {
		cfg.Plan.KillAtJob = 1
	}
	cl := &Cluster{cfg: cfg, exec: exec}
	cl.rec = obs.NewRecorder(ringEvents)
	cl.tr = transport{cl: cl, seq: make(map[linkKey]uint64)}
	cl.co = newCoordinator(cl, NewShards(storeShards))
	for i := 1; i <= cfg.Nodes; i++ {
		cl.ws = append(cl.ws, newWorker(cl, NodeID(i)))
	}
	if cfg.Attest {
		cl.at = newAttestPlane(cl)
	}
	return cl
}

// record stamps one event on the coordinator ring with the farm's logical
// clock. Ring contents are mechanism-level diagnostics (WHERE work ran);
// they are never part of compared output.
func (cl *Cluster) record(kind obs.Kind, ord int, job uint64, ret int64) {
	cl.recMu.Lock()
	cl.recTime++
	cl.rec.Record(cl.recTime, kind, 0, int32(ord), job, ret)
	cl.recMu.Unlock()
}

// Run registers every worker, schedules the jobs, and blocks until all
// reports are in. Reports come back ordered by Job ID regardless of
// completion order.
func (cl *Cluster) Run(jobs []Job) ([]JobReport, error) {
	for _, w := range cl.ws {
		if err := w.register(); err != nil {
			return nil, err
		}
	}
	reports := cl.co.dispatch(jobs)
	if cl.at != nil {
		// Audit never-exercised live workers against the admitted record of
		// the first job, then seal the chain into epochs and replicate it.
		cl.at.audit(jobs)
		cl.at.sealEpochs()
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Job < reports[j].Job })
	return reports, nil
}

// Reports returns the most recent Run's per-job reports, sorted by job ID.
func (cl *Cluster) Reports() []JobReport { return cl.co.reports }

// Ring exposes the coordinator's flight-recorder ring.
func (cl *Cluster) Ring() *obs.Recorder { return cl.rec }

// Shards exposes the coordinator's content-addressed store (tests and the
// buildsim driver seed prepared state through it).
func (cl *Cluster) Shards() *Shards { return cl.co.shards }

// Keyring exposes the attestation keyring (nil unless Config.Attest).
func (cl *Cluster) Keyring() *attest.Keyring {
	if cl.at == nil {
		return nil
	}
	return cl.at.ring
}

// Chain exposes the sealed transparency log (nil unless Config.Attest).
func (cl *Cluster) Chain() *attest.Chain {
	if cl.at == nil {
		return nil
	}
	return cl.at.chain
}

// LogServers exposes the transparency-log replicas, in ordinal order (nil
// unless Config.Attest). Replica N is the equivocating server when the fault
// plan's EquivocateEpoch == N.
func (cl *Cluster) LogServers() []*attest.Server {
	if cl.at == nil {
		return nil
	}
	return cl.at.logs
}

// AdmittedSet is the chain's admitted statements sorted by job — the value
// the attestation equivalence gates compare across fault schedules and farm
// shapes (nil unless Config.Attest).
func (cl *Cluster) AdmittedSet() []attest.Statement {
	if cl.at == nil {
		return nil
	}
	return cl.at.chain.AdmittedSet()
}

// Quarantined returns the ordinals the admission pipeline named and
// quarantined, sorted ascending.
func (cl *Cluster) Quarantined() []int {
	if cl.at == nil {
		return nil
	}
	ap := cl.at
	ap.mu.Lock()
	defer ap.mu.Unlock()
	var out []int
	for ord := range ap.quarantined {
		out = append(out, int(ord))
	}
	sort.Ints(out)
	return out
}

// Stats is the farm's deterministic accounting: the cluster's own counts,
// bumped in place as the run goes.
type Stats struct {
	Nodes, Jobs                           int
	MsgsSent, MsgsLost, MsgsRetransmitted int64
	MsgsDuplicated, MsgsDeduped           int64
	Assigns, Results                      int64
	NodeCrashes, Steals, Recoveries       int64
	ColdRecoveries, LocalFallbacks        int64
	SealPuts, SealGets                    int64
	StateHits, StateMisses                int64

	// Attestation plane (zero unless Config.Attest).
	Attestations, Rebuilds, AdmitRetries int64
	BackoffNs                            int64
	Cosigns, CosignsWithheld             int64
	LiesDetected, CorruptAttestations    int64
	Quarantines, EpochsSealed            int64
}

// Stats returns a copy of the cluster's counts. Call after Run.
func (cl *Cluster) Stats() Stats {
	st := cl.st
	st.Nodes = cl.cfg.Nodes
	return st
}
