// The distributed build farm driver: BuildAll when Options.Farm.Nodes > 0.
//
// The single-process farm (buildsim.go) proves output is independent of the
// worker-pool size; this file raises the same claim one level: output is
// independent of the whole cluster arrangement. Jobs are placed on worker
// nodes by the internal/farm coordinator (rendezvous hashing over the
// placement seed), prepared state — baseline kernel snapshots, container
// templates, checkpoint seals — lives in the coordinator's content-addressed
// shard store keyed by derive.KeyFor, and the X15 fault plane extends through
// the transport: a node killed mid-build has its job stolen and recovered on
// another node from the freshest seal. Because a DetTrace build is a pure
// function of its declared inputs, none of that machinery may move a single
// output byte — farm_test.go pins BuildAll DeepEqual across node counts,
// placement seeds and fault schedules, which makes determinism the farm's
// correctness oracle: any placement bug, stale-cache bug or botched recovery
// shows up as a bit difference, not a heisenbug.
//
// Distributed mode ignores the injectFaults test override (the per-job
// container fault plans): the farm's fault plane is Options.Farm.Plan, which
// schedules faults at the cluster level (node crash, message
// loss/duplication) and injects the container-level crash only into the
// doomed node's build.
package buildsim

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/reprotest"
	"repro/internal/stats"
)

// buildAllFarm is BuildAll on the distributed path: one farm.Job per spec,
// executed wherever the coordinator places it. Out bodies stay in-process
// (the protocol carries digests and content addresses only), land through
// the caller's collector, and must be bitwise-identical to the local
// pool's.
func (o *Options) buildAllFarm(specs []*debpkg.Spec, land func(i int, out Out)) {
	exec := func(ctx *farm.ExecCtx) (uint64, error) {
		i := int(ctx.Job.ID) - 1
		out, err := o.buildProto(specs[i], i, ctx.Store(), o.farmDT1(ctx, specs[i]))
		if err != nil {
			return 0, err
		}
		ctx.Attest.Ring = ringDigest(&out)
		// An attestation rebuild runs the full build (that is the point — an
		// independent re-execution) but its result is admission evidence,
		// never farm output.
		if !ctx.Rebuild {
			land(i, out)
		}
		return outDigest(&out), nil
	}
	cfg := o.Farm
	cfg.KeySeed = o.Seed
	cl := farm.New(cfg, exec)
	jobs := make([]farm.Job, len(specs))
	for i, spec := range specs {
		// Affinity/Image are the spec's pure identity hash: placement input
		// only, never a build input. The real image content hash is computed
		// inside the executor (it requires materialization) and keys the
		// coordinator's store.
		id := pkgSeed(0, spec)
		jobs[i] = farm.Job{ID: uint64(i) + 1, Affinity: id, Image: id}
	}
	if _, err := cl.Run(jobs); err != nil {
		// Run fails only when a worker cannot register, which the farm's
		// in-process transport never refuses.
		panic(err)
	}
	o.farmMu.Lock()
	o.lastFarm = cl
	o.farmMu.Unlock()
}

// LastFarm returns the cluster behind the most recent distributed BuildAll
// (nil before any): its Stats, Reports, AdmittedSet and Quarantined are that
// run's accounting.
func (o *Options) LastFarm() *farm.Cluster {
	o.farmMu.Lock()
	defer o.farmMu.Unlock()
	return o.lastFarm
}

// outDigest condenses one Out into the digest the farm protocol reports:
// verdicts, virtual times and headline event counts. The equivalence gates
// compare full Out bodies DeepEqual; the digest is what job reports and
// attestation statements carry.
func outDigest(out *Out) uint64 {
	h := obs.DigestBytes([]byte(string(out.BL) + "\x00" + string(out.DT) +
		"\x00" + out.UnsupReason))
	return obs.DigestU64(h, uint64(out.BLTime), uint64(out.DTTime),
		uint64(out.Events.Syscalls), uint64(out.Events.Stops))
}

// ringDigest condenses one Out into the flight-recorder digest bound into the
// build's attestation statement: the protocol digest folded with the recorded
// event counts — a fingerprint of the *execution*, not just the product, so a
// builder cannot attest an honest output it obtained by a different run. Any
// pure function of Out is schedule-pure here because X16 pins full Out bodies
// DeepEqual across every farm shape.
func ringDigest(out *Out) uint64 {
	return obs.DigestU64(outDigest(out), uint64(out.RecEvents),
		uint64(out.Events.Replays), uint64(out.Events.Sched),
		uint64(out.Events.WsForks), uint64(out.Events.WsMerges))
}

// farmDT1 builds the hook buildProto runs instead of the local first
// DetTrace build: the one run in the package protocol that the farm fault
// plane may kill (ctx.Doom) and that a post-crash attempt resumes from the
// coordinator's freshest seal. It is the local checkpointed build
// (buildDTFault) with the coordinator's store in place of the local ones —
// the first node to need a template holds the lease and prepares it, every
// other node forks the farm-shared copy — and with the two halves of crash
// recovery split across attempts: a crash returns *farm.Crash so the
// coordinator can re-place the job, and the re-placed attempt recovers. In
// checkpoint mode seals publish to the store as they land; in plain mode a
// doomed run still crashes but recovery can only cold-replay (there are no
// seals to restore).
func (o *Options) farmDT1(ctx *farm.ExecCtx, spec *debpkg.Spec) func(uint64, reprotest.Variation) (dtRun, error) {
	return func(seed uint64, v reprotest.Variation) (dtRun, error) {
		img, pkgdir, imgHash := o.pkgImage(spec, "/build")
		cfg := o.dtConfig(img, pkgdir, seed, v)
		store := ctx.Store()
		j := ckptJob{templates: store, seals: store,
			state: derive.KeyFor(imgHash, core.ConfigHash(cfg)), job: ctx.Job.ID}
		// Attestation subject: the content-addressed identity of this build,
		// taken from the CLEAN config — before any doomed-node crash knob
		// lands in it — so honest primaries and rebuilders bind the same
		// subject regardless of the fault schedule.
		ctx.Attest.Subject = j.state
		env := containerEnv
		if o.Checkpoints {
			env = checkpointEnv
			cfg.CheckpointSink = o.sealSink(j.seals, j.state, j.job)
		}
		if ctx.Attempt > 0 {
			var res *core.Result
			res, ctx.RestoredFrom = o.recoverJob(j, false, cfg, img, imgHash, env, ctx.PrevWall)
			return dtRunFrom(res, spec, pkgdir), nil
		}
		if ctx.Doom.Crashes() {
			cfg.FaultInjectCrash = ctx.Doom.CrashAtAction
		}
		res := o.runContainerFrom(store, cfg, img, imgHash, env)
		if crashed(res) {
			atomic.AddInt64(&o.faults.Crashes, 1)
			return dtRun{}, &farm.Crash{Wall: res.WallTime}
		}
		return dtRunFrom(res, spec, pkgdir), nil
	}
}

// FarmStudy is the X16 scaling-and-recovery experiment: the same package set
// built on farms of every shape — node counts x placement seeds x fault
// schedules — against one local reference. Identical must equal Cells (the
// oracle); the rest is the cost story: how much setup the shard store
// amortizes and what a node crash costs to recover from.
type FarmStudy struct {
	Packages  int   `json:"packages"`        // packages per cell
	Cells     int   `json:"cells"`           // farm shapes run
	Identical int   `json:"identical_cells"` // cells whose outputs matched the local reference exactly
	Nodes     []int `json:"node_counts"`     // node counts swept

	Crashes        int64 `json:"node_crashes"`    // worker nodes killed by the fault plans
	Steals         int64 `json:"steals"`          // jobs re-placed off dead nodes
	Recoveries     int64 `json:"recoveries"`      // crashed jobs completed by a later attempt
	ColdRecoveries int64 `json:"cold_recoveries"` // recoveries that degraded to a cold replay
	SealPuts       int64 `json:"seal_puts"`       // checkpoint seals published to shard stores
	StateMisses    int64 `json:"state_prepares"`  // prepared-state leases (one per farm-wide prepare)
	StateHits      int64 `json:"state_fetches"`   // prepared-state fetches served from shard stores
	MsgsLost       int64 `json:"msgs_lost"`       // transmissions dropped by the fault plans
	MsgsDuplicated int64 `json:"msgs_duplicated"` // deliveries duplicated by the fault plans
	MsgsDeduped    int64 `json:"msgs_deduped"`    // duplicates absorbed by idempotency keys

	AvgMTTRNs   float64 `json:"avg_mttr_ns"`   // virtual crash-to-completion time per seal restore
	AvgRedoneNs float64 `json:"avg_redone_ns"` // virtual work executed twice per recovery
}

// OK is the study's oracle: every farm shape reproduced the local reference.
func (st *FarmStudy) OK() bool { return st.Identical == st.Cells }

// String renders the study summary.
func (st *FarmStudy) String() string {
	return fmt.Sprintf(
		"packages: %d x %d farm shapes (nodes %v x placement seeds x fault schedules)\n"+
			"bitwise-identical to local reference: %s\n"+
			"faults: %d node crashes, %d steals, %d recoveries (%d cold); "+
			"%d lost msgs retransmitted, %d duplicated msgs deduped (%d)\n"+
			"shard store: %d seal puts, %d prepares, %d shared fetches\n"+
			"recovery: %.1f s virtual MTTR per restore, %.1f s work redone per recovery",
		st.Packages, st.Cells, st.Nodes,
		stats.Pct(st.Identical, st.Cells),
		st.Crashes, st.Steals, st.Recoveries, st.ColdRecoveries,
		st.MsgsLost, st.MsgsDuplicated, st.MsgsDeduped,
		st.SealPuts, st.StateMisses, st.StateHits,
		st.AvgMTTRNs/1e9, st.AvgRedoneNs/1e9)
}

// farmShape is one X16 cell's arrangement: node count, placement seed and
// fault plan.
type farmShape struct {
	nodes int
	seed  uint64
	plan  reprotest.FaultPlan
}

// farmStudy builds specs on the local checkpointed farm for reference, then
// on every farm shape cells returns, and judges each cell's output DeepEqual
// against the reference. cells sees the reference output and the first
// package's checkpointed build, whose action count places a mid-build
// crash. It returns the study and the last cell's cluster.
func (o *Options) farmStudy(specs []*debpkg.Spec, cells func(ref []Out, probe dtRun) []farmShape) (*FarmStudy, *farm.Cluster) {
	local := o.derive(func(f *Options) { f.Checkpoints, f.Farm.Nodes = true, 0 })
	ref := local.BuildAll(specs, nil)
	var probe dtRun
	if len(specs) > 0 {
		seed := pkgSeed(o.Seed, specs[0])
		v1, _ := reprotest.Pair(seed)
		probe = local.buildDT(specs[0], seed, v1, nil)
	}
	st := &FarmStudy{Packages: len(specs)}
	var mttrNs, redoneNs, restores int64
	var cl *farm.Cluster
	for _, sh := range cells(ref, probe) {
		if k := len(st.Nodes); k == 0 || st.Nodes[k-1] != sh.nodes {
			st.Nodes = append(st.Nodes, sh.nodes)
		}
		cell := local.derive(func(f *Options) {
			f.Farm.Nodes, f.Farm.PlacementSeed, f.Farm.Plan = sh.nodes, sh.seed, sh.plan
		})
		got := cell.BuildAll(specs, nil)
		st.Cells++
		if reflect.DeepEqual(got, ref) {
			st.Identical++
		}
		cl = cell.LastFarm()
		fst := cl.Stats()
		st.Crashes += fst.NodeCrashes
		st.Steals += fst.Steals
		st.Recoveries += fst.Recoveries
		st.ColdRecoveries += fst.ColdRecoveries
		st.SealPuts += fst.SealPuts
		st.StateMisses += fst.StateMisses
		st.StateHits += fst.StateHits
		st.MsgsLost += fst.MsgsLost
		st.MsgsDuplicated += fst.MsgsDuplicated
		st.MsgsDeduped += fst.MsgsDeduped
		cf := cell.FaultStats()
		mttrNs += cf.MTTRNs
		redoneNs += cf.RedoneNs
		restores += cf.Restores
	}
	if restores > 0 {
		st.AvgMTTRNs = float64(mttrNs) / float64(restores)
	}
	if n := st.Recoveries; n > 0 {
		st.AvgRedoneNs = float64(redoneNs) / float64(n)
	}
	return st, cl
}

// RunFarmStudy sweeps farm shapes over specs: node counts {1,3,8} x two
// placement seeds x three fault schedules (fault-free, kill-a-worker,
// duplicate-messages), every cell checkpointed and single-slot, all compared
// DeepEqual against the local checkpointed farm's output.
func (o *Options) RunFarmStudy(specs []*debpkg.Spec) *FarmStudy {
	st, _ := o.farmStudy(specs, func(ref []Out, probe dtRun) []farmShape {
		// Any in-range crash point works — the plan dodges harmlessly on
		// packages it overshoots — so the first package's midpoint serves all.
		var crashAt int64 = 1500
		if len(ref) > 0 && ref[0].DTTime > 0 && probe.actions > 1 {
			crashAt = probe.actions / 2
		}
		var cells []farmShape
		for _, nodes := range []int{1, 3, 8} {
			kill := min(nodes, 2)
			for _, seed := range []uint64{1, 2} {
				for _, plan := range []reprotest.FaultPlan{
					{},
					{KillNode: kill, KillAtJob: 1, CrashAtAction: crashAt},
					{DupMsg: 2},
				} {
					cells = append(cells, farmShape{nodes, seed, plan})
				}
			}
		}
		return cells
	})
	return st
}

// FarmCrashRecovery is the single-package distributed crash gate behind
// `reprotest -nodes N -kill-node ORD`: the X16 study's cell for an N-node
// farm whose fault plan kills worker ORD at the package's mid-build action.
// ORD <= 0 auto-picks the node the job lands on, so the crash is guaranteed
// to fire. nodes must be at least 1. The report is human-readable; ok is the
// machine verdict.
func (o *Options) FarmCrashRecovery(spec *debpkg.Spec, nodes, killNode int) (report string, ok bool) {
	st, _ := o.farmCrashCell(spec, nodes, killNode)
	return gateVerdict(st, st.Cells)
}

// farmCrashCell runs FarmCrashRecovery's one cell and returns its cluster.
// A package whose checkpointed build does not complete gets no cell.
func (o *Options) farmCrashCell(spec *debpkg.Spec, nodes, killNode int) (*FarmStudy, *farm.Cluster) {
	return o.farmStudy([]*debpkg.Spec{spec}, func(_ []Out, probe dtRun) []farmShape {
		if v, _ := probe.verdict(); v != "" {
			return nil
		}
		if killNode <= 0 {
			live := make([]int, nodes)
			for i := range live {
				live[i] = i + 1
			}
			killNode = farm.Place(o.Farm.PlacementSeed, pkgSeed(0, spec), live)
		}
		plan := reprotest.FaultPlan{KillNode: killNode, KillAtJob: 1, CrashAtAction: probe.actions / 2}
		return []farmShape{{nodes, o.Farm.PlacementSeed, plan}}
	})
}
