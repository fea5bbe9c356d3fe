package farm

import (
	"sync"
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/derive"
)

// Worker is one farm node: it registers with the coordinator, advertises
// capacity (slots), executes assigned builds, and publishes checkpoint seals
// into the coordinator's content-addressed store. What it counts (the
// assignments its idempotency cache absorbs) lands in the cluster's Stats.
type Worker struct {
	id NodeID
	cl *Cluster

	// signer is the worker's deterministic attestation key (nil unless the
	// cluster's attestation plane is on).
	signer *attest.Signer

	mu       sync.Mutex
	down     bool
	accepted int                  // accepted-assignment ordinal clock
	idem     map[uint64]*Envelope // idempotency cache: Idem -> first response
}

func newWorker(cl *Cluster, id NodeID) *Worker {
	w := &Worker{id: id, cl: cl, idem: make(map[uint64]*Envelope)}
	if cl.cfg.Attest {
		w.signer = attest.NewSigner(int32(id), cl.cfg.KeySeed)
	}
	return w
}

// register announces the worker to the coordinator with its capacity.
func (w *Worker) register() error {
	resp, err := w.cl.tr.send(&Envelope{
		Type: MsgRegister, From: w.id, To: Coordinator,
		Slots: int32(w.cl.cfg.Slots),
	})
	if err != nil {
		return err
	}
	_ = resp // MsgRegisterAck echoes the ordinal == w.id
	return nil
}

// Receive is the worker's half of the protocol. Only MsgAssign (builds and
// attestation rebuilds) and MsgCosign arrive here; everything else is a
// protocol error.
func (w *Worker) Receive(env *Envelope) *Envelope {
	if env.Type == MsgCosign {
		return w.cosign(env)
	}
	if env.Type != MsgAssign {
		return &Envelope{Type: MsgErr, From: w.id, To: env.From,
			Status: "unexpected " + env.Type.String()}
	}

	w.mu.Lock()
	if w.down {
		w.mu.Unlock()
		return &Envelope{Type: MsgResult, From: w.id, To: env.From,
			Job: env.Job, Attempt: env.Attempt, Status: "down"}
	}
	if prev, ok := w.idem[env.Idem]; ok {
		// Duplicate delivery of an assignment already executed (or in
		// flight): at-least-once transport, exactly-once effect.
		w.mu.Unlock()
		atomic.AddInt64(&w.cl.st.MsgsDeduped, 1)
		if prev == nil {
			return &Envelope{Type: MsgResult, From: w.id, To: env.From,
				Job: env.Job, Attempt: env.Attempt, Status: "inflight"}
		}
		return prev
	}
	w.idem[env.Idem] = nil // reserve: in flight
	w.accepted++
	w.mu.Unlock()

	resp := w.run(env)

	w.mu.Lock()
	w.idem[env.Idem] = resp
	w.mu.Unlock()
	return resp
}

// run executes one accepted assignment. A doomed assignment (env.Doom, set
// by the coordinator at placement time) has the plan's container-level crash
// injected into the build; when it fires the worker marks itself down and
// reports "crashed" so the coordinator can steal its queue.
func (w *Worker) run(env *Envelope) *Envelope {
	ctx := &ExecCtx{
		Node:     w.id,
		Job:      Job{ID: env.Job, Image: env.Image, Config: env.Config},
		Attempt:  int(env.Attempt),
		PrevWall: env.Wall,
		Rebuild:  env.Rebuild,
		w:        w,
		c:        w.cl,
	}
	if env.Doom {
		ctx.Doom = w.cl.cfg.Plan
	}
	digest, err := w.cl.exec(ctx)
	if crash, ok := err.(*Crash); ok {
		w.mu.Lock()
		w.down = true
		w.mu.Unlock()
		return &Envelope{Type: MsgResult, From: w.id, To: env.From,
			Job: env.Job, Attempt: env.Attempt, Status: "crashed", Wall: crash.Wall}
	}
	if err != nil {
		return &Envelope{Type: MsgResult, From: w.id, To: env.From,
			Job: env.Job, Attempt: env.Attempt, Status: "error: " + err.Error()}
	}
	resp := &Envelope{Type: MsgResult, From: w.id, To: env.From,
		Job: env.Job, Attempt: env.Attempt, Status: "ok",
		Digest: digest, Ordinal: int32(ctx.RestoredFrom)}
	if w.signer != nil {
		w.attest(env, ctx, digest, resp)
	}
	return resp
}

// attest attaches the worker's signed statement to an "ok" result or rebuild
// response — or, on Byzantine schedules that seat this ordinal, emits the
// planned misbehaviour: LieOutput signs (and claims) a per-ordinal wrong
// output, CorruptAttestation flips bits in an honest signature, and
// WithholdCosign attaches nothing at all. The lie is a VALID signature over
// wrong bits — exactly the claim-layer attack the admission quorum exists to
// out-vote and name.
func (w *Worker) attest(env *Envelope, ctx *ExecCtx, digest uint64, resp *Envelope) {
	plan := w.cl.cfg.Plan
	ord := int(w.id)
	if plan.WithholdCosign == ord {
		return
	}
	st := ctx.Attest
	st.Job = env.Job
	st.Output = digest
	if plan.LieOutput == ord {
		st.Output ^= lieMask(ord)
	}
	role := attest.RolePrimary
	if env.Rebuild {
		role = attest.RoleRebuilder
	}
	a := w.signer.Attest(st, role)
	if plan.CorruptAttestation == ord {
		a.Sig[0] ^= 0xFF
	}
	resp.Source = st.Subject.Image
	resp.Config = st.Subject.Config
	resp.Ring = st.Ring
	resp.Digest = st.Output
	resp.Sig = a.Sig
}

// cosign answers an epoch co-signing request (or withholds, on the Byzantine
// schedule that seats this worker as the withholder).
func (w *Worker) cosign(env *Envelope) *Envelope {
	resp := &Envelope{Type: MsgCosignAck, From: w.id, To: env.From, Job: env.Job}
	w.mu.Lock()
	down := w.down
	w.mu.Unlock()
	plan := w.cl.cfg.Plan
	if w.signer == nil || down || plan.WithholdCosign == int(w.id) {
		resp.Status = "withheld"
		return resp
	}
	sig := w.signer.Cosign(env.Digest)
	if plan.CorruptAttestation == int(w.id) {
		sig[0] ^= 0xFF
	}
	resp.Sig = sig
	return resp
}

// ctxStore is a worker's view of the coordinator's derivation store:
// derive.Store spoken over the transport, so an executor is oblivious to
// which node it runs on and drives the remote store exactly as it would an
// in-process one.
type ctxStore struct{ c *ExecCtx }

// Store returns the coordinator's derivation store as seen from this job's
// node.
func (c *ExecCtx) Store() derive.Store { return ctxStore{c} }

func (s ctxStore) send(env *Envelope) *Envelope {
	env.From = s.c.Node
	env.To = Coordinator
	resp, err := s.c.c.tr.send(env)
	if err != nil {
		return &Envelope{Type: MsgErr, Status: err.Error()}
	}
	return resp
}

func (s ctxStore) GetOrLease(k derive.Key) (any, bool) {
	resp := s.send(&Envelope{Type: MsgStateGet, Image: k.Image, Config: k.Config})
	return resp.Val, resp.Status != "lease"
}

func (s ctxStore) Put(k derive.Key, val any) {
	s.send(&Envelope{Type: MsgStatePut, Image: k.Image, Config: k.Config, Val: val})
}

func (s ctxStore) PutSeal(k derive.SealKey, val any, digest uint64) {
	s.send(&Envelope{Type: MsgSealPut, Job: k.Job,
		Image: k.State.Image, Config: k.State.Config,
		Ordinal: int32(k.Ordinal), Digest: digest, Val: val})
}

func (s ctxStore) Seal(k derive.SealKey) (any, uint64, bool) {
	resp := s.send(&Envelope{Type: MsgSealGet, Job: k.Job,
		Image: k.State.Image, Config: k.State.Config, Ordinal: int32(k.Ordinal)})
	if resp.Status == "miss" || resp.Type == MsgErr {
		return nil, 0, false
	}
	return resp.Val, resp.Digest, true
}

func (s ctxStore) Latest(state derive.Key, job uint64) int {
	resp := s.send(&Envelope{Type: MsgSealGet, Job: job,
		Image: state.Image, Config: state.Config})
	if resp.Status == "miss" {
		return 0
	}
	return int(resp.Ordinal)
}

// The accessors below are the per-job shorthand over Store: seals address
// this job's own trail.

// Prepared returns the prepared state (kernel snapshot or container
// template) at key, building it via build exactly once farm-wide: the first
// requester holds the lease and builds; concurrent requesters block until
// the put lands.
func (c *ExecCtx) Prepared(key derive.Key, build func() any) any {
	val, _ := derive.Prepared(c.Store(), key, build)
	return val
}

// PutSeal publishes a checkpoint seal for this job into the content-
// addressed store.
func (c *ExecCtx) PutSeal(key derive.Key, ordinal int, digest uint64, seal any) {
	c.Store().PutSeal(derive.SealKey{State: key, Job: c.Job.ID, Ordinal: ordinal}, seal, digest)
}

// LatestSeal returns the freshest seal ordinal published for this job (0 if
// none).
func (c *ExecCtx) LatestSeal(key derive.Key) int {
	return c.Store().Latest(key, c.Job.ID)
}

// Seal fetches the seal at the given ordinal for this job.
func (c *ExecCtx) Seal(key derive.Key, ordinal int) (any, bool) {
	val, _, ok := c.Store().Seal(derive.SealKey{State: key, Job: c.Job.ID, Ordinal: ordinal})
	return val, ok
}
