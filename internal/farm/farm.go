// Package farm is the distributed build-farm service: a coordinator and
// worker nodes speaking a message-typed request/response protocol (proto.go)
// over a pluggable transport — an in-process deterministic transport for
// tests and simulation (transport.go), and a net/http+JSON binding for real
// deployment (http.go).
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
// bytes: Node/Ord/Attempt exist for accounting, Doom carries the fault plan
// the schedule injects into this run, PrevWall the previous attempt's time
// of death for recovery bookkeeping. The seal and prepared-state accessors
// route through the coordinator's content-addressed store over the
// transport, so any node sees the same cache.
type ExecCtx struct {
	Node    NodeID
	Ord     int
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
	// RingEvents caps the coordinator's flight-recorder ring (default 256).
	RingEvents int
	// Transport overrides the in-process transport (used by the HTTP
	// binding's tests); nil means the deterministic memTransport. The fault
	// decorator wraps whatever is supplied.
	Transport Transport

	// Attest enables the Byzantine-robust attestation chain (DESIGN §4i):
	// every completed job is independently re-executed by Rebuilders other
	// nodes, quorum-admitted with dissent naming and quarantine, and sealed
	// into an epoch-batched transparency log replicated across LogServers.
	Attest bool
	// Rebuilders is how many independent re-executions certify each job
	// beyond the primary (default 2; the coordinator tops up the pool as
	// rebuilder of last resort when the farm is smaller).
	Rebuilders int
	// LogServers is the transparency-log replica count (default 3).
	LogServers int
	// EpochSize is how many admitted records one sealed epoch batches
	// (default 4).
	EpochSize int
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
// between them, and a content-addressed store at the coordinator. Metrics
// stripe per node — each worker owns an obs.Registry — and roll up at the
// coordinator with commutative Absorb, so totals are deterministic even
// when per-slot interleaving is not.
type Cluster struct {
	cfg  Config
	exec ExecFunc

	reg     *obs.Registry // coordinator registry; workers absorbed on Run exit
	rec     *obs.Recorder // coordinator ring: assign/steal/recover events
	recMu   sync.Mutex
	recTime int64 // farm logical clock for ring stamps

	c  farmCounters
	tr Transport // fault-decorated transport every node sends through
	co *coordinator
	ws []*Worker
	at *attestPlane // nil unless cfg.Attest
}

// farmCounters is the coordinator's slice of the farm registry.
type farmCounters struct {
	transportCounters
	deduped   *obs.Counter
	assigns   *obs.Counter
	results   *obs.Counter
	crashes   *obs.Counter
	steals    *obs.Counter
	recovers  *obs.Counter
	coldRuns  *obs.Counter
	fallbacks *obs.Counter
	sealPuts  *obs.Counter
	sealGets  *obs.Counter
	stateHits *obs.Counter
	stateMiss *obs.Counter
	nodeJobs  *obs.CounterVec

	// Attestation-plane counters (zero unless Config.Attest).
	attestations *obs.Counter
	rebuilds     *obs.Counter
	admitRetries *obs.Counter
	backoffNs    *obs.Counter
	cosigns      *obs.Counter
	withholds    *obs.Counter
	lies         *obs.Counter
	corrupts     *obs.Counter
	quarantines  *obs.Counter
	epochs       *obs.Counter
}

func newFarmCounters(reg *obs.Registry, nodes int) farmCounters {
	var c farmCounters
	c.sent = reg.Counter("farm_msgs_sent")
	c.lost = reg.Counter("farm_msgs_lost")
	c.retrans = reg.Counter("farm_msgs_retransmitted")
	c.duped = reg.Counter("farm_msgs_duplicated")
	c.deduped = reg.Counter("farm_msgs_deduped")
	c.assigns = reg.Counter("farm_assigns")
	c.results = reg.Counter("farm_results")
	c.crashes = reg.Counter("farm_node_crashes")
	c.steals = reg.Counter("farm_steals")
	c.recovers = reg.Counter("farm_recoveries")
	c.coldRuns = reg.Counter("farm_cold_recoveries")
	c.fallbacks = reg.Counter("farm_local_fallbacks")
	c.sealPuts = reg.Counter("farm_seal_puts")
	c.sealGets = reg.Counter("farm_seal_gets")
	c.stateHits = reg.Counter("farm_state_hits")
	c.stateMiss = reg.Counter("farm_state_misses")
	// Slot 0 is the coordinator's local-fallback lane; 1..nodes the workers.
	c.nodeJobs = reg.CounterVec("farm_node_jobs", nodes+1)
	c.attestations = reg.Counter("farm_attestations")
	c.rebuilds = reg.Counter("farm_attest_rebuilds")
	c.admitRetries = reg.Counter("farm_attest_retries")
	c.backoffNs = reg.Counter("farm_attest_backoff_ns")
	c.cosigns = reg.Counter("farm_epoch_cosigns")
	c.withholds = reg.Counter("farm_attest_withholds")
	c.lies = reg.Counter("farm_attest_lies")
	c.corrupts = reg.Counter("farm_attest_corrupt")
	c.quarantines = reg.Counter("farm_attest_quarantines")
	c.epochs = reg.Counter("farm_epochs_sealed")
	return c
}

// New assembles a cluster: coordinator, workers, transport, store. The
// executor runs on whichever node a job lands on.
func New(cfg Config, exec ExecFunc) *Cluster {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.RingEvents < 1 {
		cfg.RingEvents = 256
	}
	if cfg.Plan.KillNode > 0 && cfg.Plan.KillAtJob < 1 {
		cfg.Plan.KillAtJob = 1
	}
	if cfg.Attest {
		if cfg.Rebuilders < 1 {
			cfg.Rebuilders = 2
		}
		if cfg.LogServers < 1 {
			cfg.LogServers = 3
		}
		if cfg.EpochSize < 1 {
			cfg.EpochSize = 4
		}
	}
	cl := &Cluster{cfg: cfg, exec: exec}
	cl.reg = obs.NewRegistry()
	cl.rec = obs.NewRecorder(cfg.RingEvents)
	cl.c = newFarmCounters(cl.reg, cfg.Nodes)

	inner := cfg.Transport
	var mem *memTransport
	if inner == nil {
		mem = newMemTransport()
		inner = mem
	}
	cl.tr = newFaultTransport(inner, cfg.Plan, cl.c.transportCounters)

	cl.co = newCoordinator(cl, NewShards(storeShards))
	if mem != nil {
		mem.attach(Coordinator, cl.co)
	}
	for i := 1; i <= cfg.Nodes; i++ {
		w := newWorker(cl, NodeID(i))
		cl.ws = append(cl.ws, w)
		if mem != nil {
			mem.attach(w.id, w)
		}
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
// completion order. Worker metric stripes are absorbed into the cluster
// registry before Run returns.
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
	for _, w := range cl.ws {
		cl.reg.Absorb(w.reg)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Job < reports[j].Job })
	return reports, nil
}

// Receivers exposes the cluster's nodes by ID, for wiring a custom
// transport: the HTTP binding's tests serve each receiver from its own
// httptest server and point an HTTPTransport at the URLs.
func (cl *Cluster) Receivers() map[NodeID]Receiver {
	m := map[NodeID]Receiver{Coordinator: cl.co}
	for _, w := range cl.ws {
		m[w.id] = w
	}
	return m
}

// UseTransport replaces the cluster's transport with tr (the fault
// decorator still wraps it). Call before Run.
func (cl *Cluster) UseTransport(tr Transport) {
	cl.tr = newFaultTransport(tr, cl.cfg.Plan, cl.c.transportCounters)
}

// Reports returns the most recent Run's per-job reports, sorted by job ID.
func (cl *Cluster) Reports() []JobReport { return cl.co.reports }

// Registry exposes the cluster's rolled-up metric registry.
func (cl *Cluster) Registry() *obs.Registry { return cl.reg }

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
	return cl.at.quarantinedOrds()
}

// Stats is the farm's deterministic accounting, gathered from the rolled-up
// registry after Run.
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

// Stats reads the cluster's counters. Call after Run.
func (cl *Cluster) Stats() Stats {
	c := cl.c
	var jobs int64
	for i := 0; i < c.nodeJobs.Len(); i++ {
		jobs += c.nodeJobs.At(i)
	}
	return Stats{
		Nodes:               cl.cfg.Nodes,
		Jobs:                int(jobs),
		MsgsSent:            c.sent.Value(),
		MsgsLost:            c.lost.Value(),
		MsgsRetransmitted:   c.retrans.Value(),
		MsgsDuplicated:      c.duped.Value(),
		MsgsDeduped:         c.deduped.Value(),
		Assigns:             c.assigns.Value(),
		Results:             c.results.Value(),
		NodeCrashes:         c.crashes.Value(),
		Steals:              c.steals.Value(),
		Recoveries:          c.recovers.Value(),
		ColdRecoveries:      c.coldRuns.Value(),
		LocalFallbacks:      c.fallbacks.Value(),
		SealPuts:            c.sealPuts.Value(),
		SealGets:            c.sealGets.Value(),
		StateHits:           c.stateHits.Value(),
		StateMisses:         c.stateMiss.Value(),
		Attestations:        c.attestations.Value(),
		Rebuilds:            c.rebuilds.Value(),
		AdmitRetries:        c.admitRetries.Value(),
		BackoffNs:           c.backoffNs.Value(),
		Cosigns:             c.cosigns.Value(),
		CosignsWithheld:     c.withholds.Value(),
		LiesDetected:        c.lies.Value(),
		CorruptAttestations: c.corrupts.Value(),
		Quarantines:         c.quarantines.Value(),
		EpochsSealed:        c.epochs.Value(),
	}
}
