package farm

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/derive"
	"repro/internal/obs"
)

// pending is one job waiting in a node's queue.
type pending struct {
	job        Job
	attempt    int
	prevWall   int64
	stolenFrom int
	doom       bool
}

// nodeState is the coordinator's view of one registered worker.
type nodeState struct {
	id    NodeID
	slots int
	down  bool
	queue []pending
}

// coordinator schedules jobs across registered workers, rebalances on
// failure, and fronts the content-addressed store. Placement is static and
// pure — Place, rendezvous hashing of (placement seed, job affinity, worker
// ordinal) — so the schedule is a function of the job list and the seed,
// never of execution timing. When a worker dies its unfinished jobs are
// re-placed among the survivors ("stolen"); the crashed job itself returns
// with attempt+1 so the executor recovers it from the freshest seal in the
// store. With no survivors left the coordinator runs the remainder inline
// (local fallback).
type coordinator struct {
	cl     *Cluster
	shards *Shards

	mu        sync.Mutex
	cond      *sync.Cond
	nodes     map[NodeID]*nodeState
	order     []NodeID
	remaining int
	fallback  []pending
	reports   []JobReport
}

func newCoordinator(cl *Cluster, shards *Shards) *coordinator {
	co := &coordinator{cl: cl, shards: shards, nodes: make(map[NodeID]*nodeState)}
	co.cond = sync.NewCond(&co.mu)
	return co
}

// placeWeight is the rendezvous weight of one (job, node) pair. The top bit
// is masked off: the seeded schedules the farm tests and gates pin were
// drawn with it masked, and unmasking it would move them.
func placeWeight(seed, affinity uint64, ord int) uint64 {
	return obs.DigestU64(seed, affinity, uint64(ord)) &^ (1 << 63)
}

// Place is the farm's placement function: the highest-weight live ordinal
// wins, lower ordinal on a tie. The coordinator places and re-places every
// job through it, so a caller that needs to predict a schedule
// (cmd/reprotest's -kill-node 0 auto-picks the node a job lands on) gets
// the coordinator's exact choice.
func Place(seed, affinity uint64, live []int) int {
	best, bestW := 0, uint64(0)
	for _, ord := range live {
		w := placeWeight(seed, affinity, ord)
		if best == 0 || w > bestW {
			best, bestW = ord, w
		}
	}
	return best
}

func (co *coordinator) liveLocked() []int {
	var live []int
	for _, id := range co.order {
		if !co.nodes[id].down {
			live = append(live, int(id))
		}
	}
	sort.Ints(live)
	return live
}

// dispatch places every job, serves the queues through the workers' slot
// loops, then drains any fallback remainder inline. Blocks until all
// reports are in.
func (co *coordinator) dispatch(jobs []Job) []JobReport {
	co.mu.Lock()
	live := co.liveLocked()
	kill := co.cl.cfg.Plan.KillNode
	for _, j := range jobs {
		ord := Place(co.cl.cfg.PlacementSeed, j.Affinity, live)
		if ord == 0 {
			// No workers at all: everything falls back to the coordinator.
			co.fallback = append(co.fallback, pending{job: j})
			continue
		}
		n := co.nodes[NodeID(ord)]
		p := pending{job: j}
		if ord == kill && len(n.queue)+1 == co.cl.cfg.Plan.KillAtJob {
			p.doom = true
		}
		n.queue = append(n.queue, p)
		co.remaining++
		co.cl.record(obs.KindFarmAssign, ord, j.ID, 0)
	}
	co.mu.Unlock()

	var wg sync.WaitGroup
	co.mu.Lock()
	order := append([]NodeID(nil), co.order...)
	slots := make(map[NodeID]int, len(order))
	for _, id := range order {
		slots[id] = co.nodes[id].slots
	}
	co.mu.Unlock()
	for _, id := range order {
		for s := 0; s < slots[id]; s++ {
			wg.Add(1)
			go func(id NodeID) {
				defer wg.Done()
				co.serve(id)
			}(id)
		}
	}
	wg.Wait()

	co.mu.Lock()
	fb := co.fallback
	co.fallback = nil
	co.mu.Unlock()
	for _, p := range fb {
		co.runLocal(p)
	}
	return co.reports
}

// serve is one worker slot: it pulls from the node's queue, sends the
// assignment over the transport, and folds the result in. Exits when the
// node is down or no work remains anywhere.
func (co *coordinator) serve(id NodeID) {
	for {
		co.mu.Lock()
		n := co.nodes[id]
		for !n.down && co.remaining > 0 && len(n.queue) == 0 {
			co.cond.Wait()
		}
		if n.down || co.remaining == 0 {
			co.mu.Unlock()
			return
		}
		p := n.queue[0]
		n.queue = n.queue[1:]
		co.mu.Unlock()

		atomic.AddInt64(&co.cl.st.Assigns, 1)
		resp, err := co.cl.tr.send(&Envelope{
			Type: MsgAssign, From: Coordinator, To: id,
			Job: p.job.ID, Attempt: int32(p.attempt),
			Image: p.job.Image, Config: p.job.Config,
			Wall: p.prevWall, Doom: p.doom,
		})
		if err != nil {
			// Unroutable node: treat like a refused assignment.
			resp = &Envelope{Type: MsgResult, Status: "down"}
		}
		co.result(id, p, resp)
	}
}

// result folds one MsgResult into coordinator state.
func (co *coordinator) result(id NodeID, p pending, resp *Envelope) {
	atomic.AddInt64(&co.cl.st.Results, 1)
	switch resp.Status {
	case "ok":
		co.mu.Lock()
		co.reports = append(co.reports, JobReport{
			Job: p.job.ID, Node: int(id), Attempts: p.attempt + 1,
			StolenFrom: p.stolenFrom, Recovered: p.attempt > 0,
			SealOrd: int(resp.Ordinal), Digest: resp.Digest,
		})
		co.cl.st.Jobs++
		if p.attempt > 0 {
			atomic.AddInt64(&co.cl.st.Recoveries, 1)
			if resp.Ordinal == 0 {
				atomic.AddInt64(&co.cl.st.ColdRecoveries, 1)
			}
			co.cl.record(obs.KindFarmRecover, int(id), p.job.ID, int64(resp.Ordinal))
		}
		co.remaining--
		if co.remaining == 0 {
			co.cond.Broadcast()
		}
		co.mu.Unlock()
		if co.cl.at != nil {
			// Quorum-admit the completed job: the primary's signed claim
			// (possibly withheld or a lie) against independent rebuilds.
			co.cl.at.admitJob(p.job, int32(id),
				attestationFrom(resp, int32(id), attest.RolePrimary))
		}
	case "crashed":
		atomic.AddInt64(&co.cl.st.NodeCrashes, 1)
		co.mu.Lock()
		n := co.nodes[id]
		n.down = true
		moved := n.queue
		n.queue = nil
		retry := pending{job: p.job, attempt: p.attempt + 1,
			prevWall: resp.Wall, stolenFrom: int(id)}
		co.stealLocked(append([]pending{retry}, moved...), int(id))
		co.cond.Broadcast()
		co.mu.Unlock()
	case "down":
		// The worker refused the assignment (it died between placement and
		// delivery); re-place just this job, attempt unchanged.
		co.mu.Lock()
		co.nodes[id].down = true
		p.stolenFrom = int(id)
		co.stealLocked([]pending{p}, int(id))
		co.cond.Broadcast()
		co.mu.Unlock()
	default:
		co.mu.Lock()
		co.reports = append(co.reports, JobReport{
			Job: p.job.ID, Node: int(id), Attempts: p.attempt + 1,
			StolenFrom: p.stolenFrom, Err: resp.Status,
		})
		co.remaining--
		if co.remaining == 0 {
			co.cond.Broadcast()
		}
		co.mu.Unlock()
	}
}

// stealLocked re-places jobs rescued from a dead node among the survivors;
// with none left they join the coordinator's local-fallback queue. Caller
// holds co.mu.
func (co *coordinator) stealLocked(ps []pending, deadOrd int) {
	live := co.liveLocked()
	for _, p := range ps {
		p.stolenFrom = deadOrd
		atomic.AddInt64(&co.cl.st.Steals, 1)
		if len(live) == 0 {
			co.fallback = append(co.fallback, p)
			co.remaining--
			co.cl.record(obs.KindFarmSteal, 0, p.job.ID, int64(deadOrd))
			continue
		}
		ord := Place(co.cl.cfg.PlacementSeed, p.job.Affinity, live)
		co.nodes[NodeID(ord)].queue = append(co.nodes[NodeID(ord)].queue, p)
		co.cl.record(obs.KindFarmSteal, ord, p.job.ID, int64(deadOrd))
	}
}

// runLocal executes one fallback job inline on the coordinator — the
// degenerate farm every worker has left.
func (co *coordinator) runLocal(p pending) {
	ctx := &ExecCtx{
		Node: Coordinator, Job: p.job,
		Attempt: p.attempt, PrevWall: p.prevWall, c: co.cl,
	}
	digest, err := co.cl.exec(ctx)
	atomic.AddInt64(&co.cl.st.LocalFallbacks, 1)
	rep := JobReport{
		Job: p.job.ID, Node: 0, Attempts: p.attempt + 1,
		StolenFrom: p.stolenFrom, Recovered: p.attempt > 0,
		SealOrd: ctx.RestoredFrom, Digest: digest,
	}
	if err != nil {
		rep.Err = err.Error()
		rep.Digest = 0
	}
	co.mu.Lock()
	co.reports = append(co.reports, rep)
	co.cl.st.Jobs++
	if p.attempt > 0 && err == nil {
		atomic.AddInt64(&co.cl.st.Recoveries, 1)
		if ctx.RestoredFrom == 0 {
			atomic.AddInt64(&co.cl.st.ColdRecoveries, 1)
		}
		co.cl.record(obs.KindFarmRecover, 0, p.job.ID, int64(ctx.RestoredFrom))
	}
	co.mu.Unlock()
	if co.cl.at != nil && err == nil {
		// The coordinator is the primary for fallback jobs: it signs its own
		// statement and admission proceeds as usual (a degenerate pool when
		// no workers survive).
		st := ctx.Attest
		st.Job = p.job.ID
		st.Output = digest
		a := co.cl.at.signer.Attest(st, attest.RolePrimary)
		co.cl.at.admitJob(p.job, 0, &a)
	}
}

// Receive is the coordinator's half of the protocol — registration and the
// content-addressed store. Every handler is idempotent by construction
// (re-registration is a no-op, puts are first-wins, gets are reads), so
// duplicate deliveries need no idem cache here.
func (co *coordinator) Receive(env *Envelope) *Envelope {
	switch env.Type {
	case MsgRegister:
		co.mu.Lock()
		if _, ok := co.nodes[env.From]; !ok {
			co.nodes[env.From] = &nodeState{
				id: env.From, slots: int(env.Slots),
			}
			co.order = append(co.order, env.From)
		}
		co.mu.Unlock()
		return &Envelope{Type: MsgRegisterAck, From: Coordinator, To: env.From,
			Ordinal: int32(env.From)}
	case MsgSealPut:
		atomic.AddInt64(&co.cl.st.SealPuts, 1)
		co.shards.PutSeal(derive.SealKey{
			State: derive.KeyFor(env.Image, env.Config), Job: env.Job,
			Ordinal: int(env.Ordinal),
		}, env.Val, env.Digest)
		return &Envelope{Type: MsgSealAck, From: Coordinator, To: env.From}
	case MsgSealGet:
		atomic.AddInt64(&co.cl.st.SealGets, 1)
		key := derive.KeyFor(env.Image, env.Config)
		ord := int(env.Ordinal)
		if ord == 0 {
			ord = co.shards.Latest(key, env.Job)
		}
		if ord == 0 {
			return &Envelope{Type: MsgSealData, From: Coordinator, To: env.From,
				Status: "miss"}
		}
		val, digest, ok := co.shards.Seal(derive.SealKey{State: key, Job: env.Job, Ordinal: ord})
		if !ok {
			return &Envelope{Type: MsgSealData, From: Coordinator, To: env.From,
				Status: "miss"}
		}
		return &Envelope{Type: MsgSealData, From: Coordinator, To: env.From,
			Ordinal: int32(ord), Digest: digest, Val: val}
	case MsgStateGet:
		val, ok := co.shards.GetOrLease(derive.KeyFor(env.Image, env.Config))
		if !ok {
			atomic.AddInt64(&co.cl.st.StateMisses, 1)
			return &Envelope{Type: MsgStateData, From: Coordinator, To: env.From,
				Status: "lease"}
		}
		atomic.AddInt64(&co.cl.st.StateHits, 1)
		return &Envelope{Type: MsgStateData, From: Coordinator, To: env.From, Val: val}
	case MsgStatePut:
		co.shards.Put(derive.KeyFor(env.Image, env.Config), env.Val)
		return &Envelope{Type: MsgStateAck, From: Coordinator, To: env.From}
	default:
		return &Envelope{Type: MsgErr, From: Coordinator, To: env.From,
			Status: "unexpected " + env.Type.String()}
	}
}
