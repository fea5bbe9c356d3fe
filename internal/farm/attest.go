package farm

import (
	"bytes"
	"crypto/ed25519"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/derive"
	"repro/internal/obs"
)

// This file is the farm half of the Byzantine-robust attestation chain
// (DESIGN §4i). The coordinator drives quorum admission job by job: the
// primary's signed claim plus independent rebuilder re-executions, judged by
// attest.Admit, a quorum over statement digests. Dissenters are named and
// quarantined — marked down, their queued jobs re-placed by the same
// rendezvous hashing that handles crashes — and admission retries with a
// widened pool under exponential virtual backoff, escalating to the
// coordinator as rebuilder of last resort. Admitted records are sealed into
// the epoch-batched transparency log at the end of the run and replicated
// across the log servers, with collective cosignatures gathered over the
// protocol (MsgCosign).
//
// Determinism is what makes all of this cheap and airtight: every honest
// participant computes the identical statement, so honesty needs no
// coordination and a lie is always a nameable minority.

const (
	// maxAdmitAttempts bounds the quorum retry loop before the coordinator
	// escalates to arbiter-of-last-resort.
	maxAdmitAttempts = 3
	// admitBackoffNs is the base of the exponential VIRTUAL backoff charged
	// per failed admission attempt (accounted, never slept — the farm has no
	// host-time dependence).
	admitBackoffNs = 1000
	// rebuildersPerJob is how many independent re-executions certify each
	// job beyond the primary; the coordinator tops up the pool as rebuilder
	// of last resort when the farm is smaller.
	rebuildersPerJob = 2
	// logServers is the transparency-log replica count.
	logServers = 3
	// epochSize is how many admitted records one sealed epoch batches.
	epochSize = 4
)

// attestPlane is the cluster's attestation state: the coordinator's signer,
// the deterministic keyring, the chain under construction, and the log
// replicas.
type attestPlane struct {
	cl     *Cluster
	signer *attest.Signer // coordinator, ordinal 0
	ring   *attest.Keyring
	check  attest.Checker // the ring, as each job's jobSigs wraps it
	chain  *attest.Chain
	logs   []*attest.Server

	mu          sync.Mutex
	records     []attest.Record
	admitted    map[uint64]attest.Record // job ID -> admitted record
	quarantined map[int32]bool
	exercised   map[int32]bool // ordinals that have attested at least once
}

func newAttestPlane(cl *Cluster) *attestPlane {
	ap := &attestPlane{
		cl:          cl,
		signer:      attest.NewSigner(0, cl.cfg.KeySeed),
		ring:        attest.NewKeyring(cl.cfg.Nodes, cl.cfg.KeySeed),
		chain:       attest.NewChain(),
		admitted:    make(map[uint64]attest.Record),
		quarantined: make(map[int32]bool),
		exercised:   make(map[int32]bool),
	}
	ap.check = ap.ring
	for i := 1; i <= logServers; i++ {
		if cl.cfg.Plan.EquivocateEpoch == i {
			ap.logs = append(ap.logs, attest.NewEquivocatingServer())
		} else {
			ap.logs = append(ap.logs, attest.NewServer())
		}
	}
	return ap
}

// lieMask is the per-ordinal output perturbation a lying builder signs.
// Distinct per ordinal, so even colluding liars cannot agree on one wrong
// value and can never form a quorum among themselves.
func lieMask(ord int) uint64 {
	return obs.DigestU64(0xBADB1D, uint64(ord)) | 1
}

// attestationFrom reconstructs the attestation an "ok" result or rebuild
// response carries (nil when the builder withheld it).
func attestationFrom(resp *Envelope, builder int32, role attest.Role) *attest.Attestation {
	if len(resp.Sig) == 0 {
		return nil
	}
	return &attest.Attestation{
		Statement: attest.Statement{
			Subject: derive.Key{Image: resp.Source, Config: resp.Config},
			Job:     resp.Job, Output: resp.Digest, Ring: resp.Ring,
		},
		Builder: builder, Role: role, Sig: resp.Sig,
	}
}

// rebuilders picks up to want not-yet-tried rebuilder ordinals for the job
// by rendezvous hashing over the live workers (primary excluded), appending
// the coordinator as rebuilder of last resort when the farm is too small.
func (ap *attestPlane) rebuilders(job Job, primary int32, want int, tried map[int32]bool) []int32 {
	co := ap.cl.co
	co.mu.Lock()
	live := co.liveLocked()
	co.mu.Unlock()
	type cand struct {
		ord int32
		w   uint64
	}
	var cands []cand
	for _, ord := range live {
		o := int32(ord)
		if o == primary || tried[o] {
			continue
		}
		cands = append(cands, cand{o, obs.DigestU64(ap.cl.cfg.KeySeed^0x5EB01D, job.ID, uint64(ord))})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		return cands[i].ord < cands[j].ord
	})
	var out []int32
	for _, c := range cands {
		if len(out) == want {
			break
		}
		out = append(out, c.ord)
	}
	if len(out) < want && !tried[0] {
		out = append(out, 0)
	}
	return out
}

// solicit obtains one independent rebuild attestation: inline on the
// coordinator for ordinal 0, over the protocol (a Rebuild-flagged MsgAssign)
// for workers. A withheld, failed or unroutable solicitation yields no vote.
func (ap *attestPlane) solicit(job Job, ord int32) *attest.Attestation {
	cl := ap.cl
	atomic.AddInt64(&cl.st.Rebuilds, 1)
	if ord == 0 {
		ctx := &ExecCtx{Node: Coordinator, Job: job, Rebuild: true, c: cl}
		digest, err := cl.exec(ctx)
		if err != nil {
			return nil
		}
		st := ctx.Attest
		st.Job = job.ID
		st.Output = digest
		a := ap.signer.Attest(st, attest.RoleRebuilder)
		atomic.AddInt64(&cl.st.Attestations, 1)
		return &a
	}
	resp, err := cl.tr.send(&Envelope{
		Type: MsgAssign, From: Coordinator, To: NodeID(ord),
		Job: job.ID, Image: job.Image, Config: job.Config, Rebuild: true,
	})
	if err != nil || resp.Status != "ok" {
		return nil
	}
	a := attestationFrom(resp, ord, attest.RoleRebuilder)
	if a == nil {
		atomic.AddInt64(&cl.st.CosignsWithheld, 1)
		return nil
	}
	atomic.AddInt64(&cl.st.Attestations, 1)
	return a
}

// jobSigs is one job's attestation pool with each member's signature
// verdict kept beside it, so every attestation is checked once per job
// however often the pool is judged: each admission attempt, the arbiter and
// the corrupt/lie census all read the same verdict. The cache key is the
// whole signed tuple — statement, builder, role and signature bytes —
// compared against the pool member, never an ordinal alone; ed25519
// verification is a pure function of (key, message, signature), so a hit
// answers exactly what a fresh check would. Pool members are never mutated
// once added, and the cache lives only as long as the job's admission.
type jobSigs struct {
	check attest.Checker
	atts  []attest.Attestation
	valid []int8 // per atts[i]: 0 unchecked, +1 valid, -1 invalid
}

func (s *jobSigs) add(a attest.Attestation) {
	s.atts = append(s.atts, a)
	s.valid = append(s.valid, 0)
}

// Verify implements attest.Checker over the pool's cached verdicts. A
// signature of the wrong length fails closed without a check or an entry;
// an attestation outside the pool is checked fresh and not remembered.
func (s *jobSigs) Verify(a attest.Attestation) bool {
	if len(a.Sig) != ed25519.SignatureSize {
		return false
	}
	for i := range s.atts {
		p := &s.atts[i]
		if p.Statement != a.Statement || p.Builder != a.Builder || p.Role != a.Role || !bytes.Equal(p.Sig, a.Sig) {
			continue
		}
		if s.valid[i] == 0 {
			s.valid[i] = -1
			if s.check.Verify(a) {
				s.valid[i] = 1
			}
		}
		return s.valid[i] > 0
	}
	return s.check.Verify(a)
}

// admitJob runs the full admission pipeline for one completed job: widen the
// rebuilder pool under bounded retries with exponential virtual backoff
// until a k-of-n majority quorum forms (k = majority of the pool), escalate
// to the coordinator arbiter when it cannot, then quarantine every named
// dissenter and store the admitted record for epoch sealing.
func (ap *attestPlane) admitJob(job Job, primary int32, primAtt *attest.Attestation) {
	cl := ap.cl
	pool := []int32{primary}
	tried := map[int32]bool{primary: true}
	n := 1 + rebuildersPerJob
	sigs := &jobSigs{check: ap.check,
		atts: make([]attest.Attestation, 0, n), valid: make([]int8, 0, n)}
	if primAtt != nil {
		sigs.add(*primAtt)
		atomic.AddInt64(&cl.st.Attestations, 1)
	} else {
		atomic.AddInt64(&cl.st.CosignsWithheld, 1)
	}

	var adm attest.Admission
	for attempt := 0; attempt < maxAdmitAttempts; attempt++ {
		for _, ord := range ap.rebuilders(job, primary, rebuildersPerJob+attempt, tried) {
			tried[ord] = true
			pool = append(pool, ord)
			if a := ap.solicit(job, ord); a != nil {
				sigs.add(*a)
			}
		}
		adm = attest.Admit(sigs, pool, sigs.atts, len(pool)/2+1)
		if adm.OK {
			break
		}
		atomic.AddInt64(&cl.st.AdmitRetries, 1)
		atomic.AddInt64(&cl.st.BackoffNs, admitBackoffNs<<attempt)
	}
	if !adm.OK {
		// Arbiter of last resort: the coordinator re-executes the build
		// itself and its statement decides — determinism makes any single
		// honest replica THE reference, and the coordinator is the log
		// authority already. This is what keeps a 1-worker farm with a
		// lying worker from deadlocking admission.
		if !tried[0] {
			tried[0] = true
			pool = append(pool, 0)
			if a := ap.solicit(job, 0); a != nil {
				sigs.add(*a)
			}
		}
		adm = ap.arbiter(pool, sigs)
	}

	for _, a := range sigs.atts {
		switch {
		case !sigs.Verify(a):
			atomic.AddInt64(&cl.st.CorruptAttestations, 1)
		case adm.OK && a.Statement.Digest() != adm.Record.Statement.Digest():
			atomic.AddInt64(&cl.st.LiesDetected, 1)
		}
	}
	for _, ord := range adm.Dissent {
		ap.quarantine(ord, job.ID)
	}
	ap.mu.Lock()
	for ord := range tried {
		ap.exercised[ord] = true
	}
	if adm.OK {
		ap.records = append(ap.records, adm.Record)
		ap.admitted[job.ID] = adm.Record
	}
	ap.mu.Unlock()
	cl.record(obs.KindAttest, int(primary), job.ID, int64(len(adm.Dissent)))
}

// arbiter admits the statement matching the coordinator's own re-execution:
// every valid attestation agreeing with it co-signs, everything else in the
// pool dissents. Used only when no majority quorum formed within the retry
// budget.
func (ap *attestPlane) arbiter(pool []int32, sigs *jobSigs) attest.Admission {
	atts := sigs.atts
	var ref *attest.Attestation
	for i := range atts {
		if atts[i].Builder == 0 && sigs.Verify(atts[i]) {
			ref = &atts[i]
			break
		}
	}
	if ref == nil {
		// The coordinator itself could not rebuild: admit nothing, dissent
		// everyone — the job stays unattested rather than wrongly admitted.
		adm := attest.Admission{}
		adm.Dissent = append(adm.Dissent, pool...)
		sort.Slice(adm.Dissent, func(i, j int) bool { return adm.Dissent[i] < adm.Dissent[j] })
		return adm
	}
	agree := map[int32]bool{}
	for _, a := range atts {
		if sigs.Verify(a) && a.Statement.Digest() == ref.Statement.Digest() {
			agree[a.Builder] = true
		}
	}
	adm := attest.Admission{OK: true}
	adm.Record.Statement = ref.Statement
	for _, ord := range pool {
		if agree[ord] {
			adm.Record.Cosigners = append(adm.Record.Cosigners, ord)
		} else {
			adm.Dissent = append(adm.Dissent, ord)
		}
	}
	sort.Slice(adm.Record.Cosigners, func(i, j int) bool { return adm.Record.Cosigners[i] < adm.Record.Cosigners[j] })
	sort.Slice(adm.Dissent, func(i, j int) bool { return adm.Dissent[i] < adm.Dissent[j] })
	adm.Record.Dissent = adm.Dissent
	return adm
}

// quarantine names a Byzantine builder: the node is marked down and its
// queued jobs are re-placed among the survivors by the same rendezvous
// hashing that rescues crashed nodes' work.
func (ap *attestPlane) quarantine(ord int32, job uint64) {
	if ord <= 0 {
		return
	}
	ap.mu.Lock()
	if ap.quarantined[ord] {
		ap.mu.Unlock()
		return
	}
	ap.quarantined[ord] = true
	ap.mu.Unlock()
	cl := ap.cl
	atomic.AddInt64(&cl.st.Quarantines, 1)
	cl.record(obs.KindQuarantine, int(ord), job, 0)
	co := cl.co
	co.mu.Lock()
	if n, ok := co.nodes[NodeID(ord)]; ok && !n.down {
		n.down = true
		moved := n.queue
		n.queue = nil
		if len(moved) > 0 {
			co.stealLocked(moved, int(ord))
		}
		co.cond.Broadcast()
	}
	co.mu.Unlock()
}

// audit closes the detection gap for Byzantine workers that never happened
// to build or rebuild anything: every live, never-exercised worker is asked
// to rebuild the first job, and its attestation is checked against the
// admitted record. A refusal, an invalid signature or a mismatching digest
// names the node.
func (ap *attestPlane) audit(jobs []Job) {
	if len(jobs) == 0 {
		return
	}
	ap.mu.Lock()
	rec, ok := ap.admitted[jobs[0].ID]
	ap.mu.Unlock()
	if !ok {
		return
	}
	co := ap.cl.co
	co.mu.Lock()
	live := co.liveLocked()
	co.mu.Unlock()
	for _, ord := range live {
		o := int32(ord)
		ap.mu.Lock()
		done := ap.exercised[o]
		ap.exercised[o] = true
		ap.mu.Unlock()
		if done {
			continue
		}
		a := ap.solicit(jobs[0], o)
		switch {
		case a == nil:
			ap.quarantine(o, jobs[0].ID)
		case !ap.check.Verify(*a):
			atomic.AddInt64(&ap.cl.st.CorruptAttestations, 1)
			ap.quarantine(o, jobs[0].ID)
		case a.Statement.Digest() != rec.Statement.Digest():
			atomic.AddInt64(&ap.cl.st.LiesDetected, 1)
			ap.quarantine(o, jobs[0].ID)
		}
	}
}

// sealEpochs closes the run: admitted records, sorted by job so the chain is
// a pure function of the admitted set, are batched into epochs, collectively
// cosigned by the coordinator and every live honest worker over MsgCosign,
// and replicated to every log server.
func (ap *attestPlane) sealEpochs() {
	cl := ap.cl
	ap.mu.Lock()
	records := append([]attest.Record(nil), ap.records...)
	ap.mu.Unlock()
	sort.Slice(records, func(i, j int) bool { return records[i].Job < records[j].Job })

	co := cl.co
	co.mu.Lock()
	live := co.liveLocked()
	co.mu.Unlock()
	participants := []int32{0}
	for _, ord := range live {
		participants = append(participants, int32(ord))
	}

	for off := 0; off < len(records); off += epochSize {
		end := off + epochSize
		if end > len(records) {
			end = len(records)
		}
		e := ap.chain.Seal(records[off:end], participants)
		h := e.BlockHash()
		e.Cosigs = append(e.Cosigs, attest.Cosig{Ord: 0, Sig: ap.signer.Cosign(h)})
		atomic.AddInt64(&cl.st.Cosigns, 1)
		for _, ord := range participants[1:] {
			resp, err := cl.tr.send(&Envelope{
				Type: MsgCosign, From: Coordinator, To: NodeID(ord),
				Job: uint64(e.Index), Digest: h,
			})
			if err != nil || resp.Status == "withheld" || len(resp.Sig) == 0 {
				atomic.AddInt64(&cl.st.CosignsWithheld, 1)
				continue
			}
			if !ap.ring.VerifyCosign(ord, h, resp.Sig) {
				atomic.AddInt64(&cl.st.CorruptAttestations, 1)
				continue
			}
			e.Cosigs = append(e.Cosigs, attest.Cosig{Ord: ord, Sig: resp.Sig})
			atomic.AddInt64(&cl.st.Cosigns, 1)
		}
		for _, s := range ap.logs {
			s.Append(e)
		}
		atomic.AddInt64(&cl.st.EpochsSealed, 1)
		cl.record(obs.KindEpochSeal, 0, uint64(e.Index), int64(end-off))
	}
}
