package main

import (
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/derive"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/reprotest"
)

// farmControl is the distributed farm with no kernel under it: synthetic
// jobs through attested three-node clusters whose executor is a pure stub,
// under a fault plan that duplicates a message and kills a node, then
// three rebuild-free verification queries for every job plus 10% forged claims.
// Placement, the envelope codec, the transport, farm.Shards, quorum
// admission, cosigning, log replication and the verifier are all of the
// time — the control plane that is under 1% of an attested BuildAll and so
// cannot be measured there.
type farmControl struct {
	seed    uint64
	batches [][]farm.Job
	forged  [][]uint64 // per batch: output mask per job, 0 = no forged claim
	plan    reprotest.FaultPlan
	in      uint64

	// virt accumulates the stub's virtual work over the executions on the
	// farm's output path: every primary attempt, the doomed one and its
	// recovery included. Rebuilder executions are left out — whether a
	// rebuild solicitation reaches the doomed node before it dies is a host
	// scheduling accident (farm.Stats.Attestations moves by one between
	// identical runs), and a virtual-clock metric must repeat exactly.
	virt atomic.Int64

	// tamper, when set, rewrites a verdict before it is checked —
	// bench_test.go's proof that an accepted forgery is a failed op.
	tamper func(batch, job int, forged bool, v attest.Verdict) attest.Verdict
}

// At scale 1 a repetition is farmBatches clusters of farmBatchJobs jobs.
const (
	farmBatches   = 2
	farmBatchJobs = 250
	stubSeals     = 6
	farmConsumers = 3 // honest verify queries per admitted job
)

func (w *farmControl) gen(seed uint64, scale float64) {
	w.seed = seed
	rng := prng.NewHost(seed ^ 0xfa12)
	images := make([]uint64, 16)
	for i := range images {
		images[i] = rng.Uint64() | 1
	}
	configs := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	nJobs := int(float64(farmBatchJobs)*scale + 0.5)
	if nJobs < 12 {
		nJobs = 12
	}
	nBatches := farmBatches
	if scale < 0.5 {
		nBatches = 2
	}
	d := newDigest()
	w.batches, w.forged = nil, nil
	for b := 0; b < nBatches; b++ {
		jobs := make([]farm.Job, nJobs)
		forged := make([]uint64, nJobs)
		for i := range jobs {
			img := images[rng.Intn(len(images))]
			// Affinity is per job, not per image: with a node dead, image
			// affinity would split 16 images unevenly over the two
			// survivors, differently for every seed, and the imbalance —
			// not the control plane — would set the throughput.
			jobs[i] = farm.Job{ID: uint64(i + 1), Affinity: rng.Uint64(), Image: img, Config: configs[rng.Intn(len(configs))]}
			if rng.Intn(10) == 0 {
				forged[i] = rng.Uint64() | 1
			}
			d.num(jobs[i].ID, img, jobs[i].Config, forged[i])
		}
		w.batches = append(w.batches, jobs)
		w.forged = append(w.forged, forged)
	}
	// One duplicated transmission and one node killed on its second job.
	w.plan = reprotest.FaultPlan{DupMsg: 2 + int64(rng.Intn(4)), KillNode: 2,
		KillAtJob: 2, CrashAtAction: 50}
	d.num(uint64(w.plan.DupMsg), uint64(w.plan.KillNode))
	w.in = d.sum()
}

func (w *farmControl) inputDigest() uint64 { return w.in }

// The stub's pure functions of a job's declared inputs.
func stubDigest(j farm.Job) uint64 { return obs.DigestU64(0x57ab, j.ID, j.Image, j.Config) }
func stubRing(j farm.Job) uint64   { return obs.DigestU64(0x4196, j.ID, j.Image) }
func stubSource(j farm.Job) uint64 { return obs.DigestU64(0x50c3, j.Image) }

// stubCost is a job's virtual build time: 200-300 s, so the mean over a
// batch moves by about a percent between seeds.
func stubCost(j farm.Job) int64 {
	return 200e9 + int64(obs.DigestU64(0xc057, j.ID, j.Image)%100)*1e9
}
func stubSubject(j farm.Job) derive.Key {
	return derive.Key{Image: stubSource(j), Config: j.Config}
}

// stubExec is the farm's executor: everything a build does to the farm —
// prepared state, seals, recovery from the freshest seal, the attestation
// statement — and nothing else.
func (w *farmControl) stubExec(ctx *farm.ExecCtx) (uint64, error) {
	j := ctx.Job
	key := derive.KeyFor(j.Image, j.Config)
	ctx.Prepared(key, func() any { return j.Image ^ j.Config })
	start := 0
	if ctx.Attempt > 0 {
		if ord := ctx.LatestSeal(key); ord > 0 {
			if _, ok := ctx.Seal(key, ord); ok {
				ctx.RestoredFrom, start = ord, ord
			}
		}
	}
	last := stubSeals
	if ctx.Doom.Crashes() {
		last = stubSeals / 2
	}
	for ord := start + 1; ord <= last; ord++ {
		ctx.PutSeal(key, ord, obs.DigestU64(j.ID, uint64(ord)), ord)
	}
	// Virtual work is charged in half-seal units: a doomed attempt dies
	// half a seal past its last one, and that half is what recovery redoes.
	cost := stubCost(j)
	units := int64(2 * (last - start))
	if ctx.Doom.Crashes() {
		units++
	}
	if !ctx.Rebuild {
		w.virt.Add(cost * units / (2 * stubSeals))
	}
	if ctx.Doom.Crashes() {
		return 0, &farm.Crash{Wall: cost * int64(2*last+1) / (2 * stubSeals)}
	}
	ctx.Attest = attest.Statement{Subject: stubSubject(j), Ring: stubRing(j)}
	return stubDigest(j), nil
}

func (w *farmControl) config(attested bool) farm.Config {
	return farm.Config{Nodes: 3, Slots: 1, PlacementSeed: w.seed, Plan: w.plan,
		Attest: attested, KeySeed: w.seed ^ 0x6e75}
}

func (w *farmControl) run(clients int, t *tracer, ls *layerStats) repOut {
	var out repOut
	od := newDigest()
	w.virt.Store(0)
	var bare int64
	var stats farm.Stats
	var hops, honest int64
	for b, jobs := range w.batches {
		op := int64(b)
		// 1. Admission: one attested cluster per batch.
		var cl *farm.Cluster
		ns := t.do("farm.new", op, func() { cl = farm.New(w.config(true), w.stubExec) })
		var reports []farm.JobReport
		var err error
		ns += t.do("farm.run", op, func() { reports, err = cl.Run(jobs) })
		out.ops += int64(len(jobs))
		out.lat = append(out.lat, sample{float64(ns) / 1e6 / float64(len(jobs)), float64(len(jobs))})
		admitted := cl.AdmittedSet()
		if err != nil || len(reports) != len(jobs) || len(admitted) != len(jobs) {
			out.failed += int64(len(jobs))
			continue
		}
		for i, j := range jobs {
			r, a := reports[i], admitted[i]
			if r.Err != "" || r.Job != j.ID || r.Digest != stubDigest(j) ||
				a.Job != j.ID || a.Output != stubDigest(j) || a.Subject != stubSubject(j) {
				out.failed++
			}
			od.num(r.Job, r.Digest, a.Digest())
			bare += stubCost(j)
		}
		st := cl.Stats()
		stats.MsgsSent += st.MsgsSent
		stats.MsgsDuplicated += st.MsgsDuplicated
		stats.MsgsDeduped += st.MsgsDeduped
		stats.Steals += st.Steals
		if ls != nil {
			w.probePlainFarm(t, ls, op, jobs, float64(ns)/1e3/float64(len(jobs)))
		}

		// 2. Verification: every job's honest claim and the forged ones,
		// from the log alone. One verifier per client; the replicas are
		// shared.
		type query struct {
			job    int
			output uint64
			forged bool
		}
		// Each artifact is checked by three consumers, which also keeps
		// queries a clear majority of the ops: op_ms_p50 then sits inside
		// the query cluster rather than on its boundary with admissions.
		var queries []query
		for i, j := range jobs {
			for consumer := 0; consumer < farmConsumers; consumer++ {
				queries = append(queries, query{i, stubDigest(j), false})
			}
			if mask := w.forged[b][i]; mask != 0 {
				queries = append(queries, query{i, stubDigest(j) ^ mask, true})
			}
		}
		servers := cl.LogServers()
		verifiers := make([]*attest.Verifier, clients)
		for c := range verifiers {
			logs := make([]attest.LogClient, len(servers))
			for i, s := range servers {
				logs[i] = s
			}
			verifiers[c] = attest.NewVerifier(cl.Keyring(), logs...)
		}
		verdicts := make([]attest.Verdict, len(queries))
		lats := make([][]sample, clients)
		forEachClient(clients, len(queries), func(c, qi int) {
			q := queries[qi]
			j := jobs[q.job]
			d := t.do("attest.verify", op, func() {
				verdicts[qi] = verifiers[c].Verify(stubSubject(j), j.ID, q.output)
			})
			lats[c] = append(lats[c], sample{float64(d) / 1e6, 1})
			ls.us("attest.verify_query_us", d)
		})
		for c := range lats {
			out.lat = append(out.lat, lats[c]...)
		}
		for qi, q := range queries {
			v := verdicts[qi]
			if w.tamper != nil {
				v = w.tamper(b, q.job, q.forged, v)
			}
			// An honest claim must verify; a forged one must not.
			if v.OK == q.forged {
				out.failed++
			}
			if !q.forged {
				hops += int64(v.Hops)
				honest++
			}
			od.num(uint64(q.job), q.output, uint64(v.Level), uint64(v.Hops))
		}
		out.ops += int64(len(queries))
	}
	out.digest = od.sum()
	virt := w.virt.Load()
	out.slowdown = float64(virt) / float64(bare)
	out.virtUsPerOp = float64(virt) / 1e3 / float64(out.ops)
	if ls != nil {
		var jobs float64
		for _, b := range w.batches {
			jobs += float64(len(b))
		}
		ls.set("farm.msgs_per_job", float64(stats.MsgsSent)/jobs)
		if stats.MsgsDuplicated > 0 {
			ls.set("farm.dedup_frac", float64(stats.MsgsDeduped)/float64(stats.MsgsDuplicated))
		}
		ls.set("farm.steals", float64(stats.Steals))
		ls.set("attest.verify_hops", float64(hops)/float64(honest))
		w.probeCodecs(t, ls)
	}
	return out
}

// probePlainFarm runs the same batch through a cluster with the attestation
// plane off: placement, transport, shards and recovery alone. The attested
// run minus this one is what attestation costs per job. A probe, not an op.
func (w *farmControl) probePlainFarm(t *tracer, ls *layerStats, op int64, jobs []farm.Job, attestedUsPerJob float64) {
	id := t.begin("probe.farm_plain", op)
	defer t.end(id)
	virt := w.virt.Load()
	var cl *farm.Cluster
	ns := t.do("farm.new", op, func() { cl = farm.New(w.config(false), w.stubExec) })
	ns += t.do("farm.run", op, func() { cl.Run(jobs) })
	w.virt.Store(virt) // the probe's executions are not the workload's
	perJob := float64(ns) / 1e3 / float64(len(jobs))
	ls.obs("farm.run_us_per_job", perJob)
	ls.obs("farm.attest_us_per_job", attestedUsPerJob-perJob)
}

// probeCodecs times the farm's and the attestation chain's public
// primitives alone, on inputs drawn from the workload's own jobs: the
// envelope and attestation codecs, the shard store, signing, signature
// verification, quorum admission, epoch sealing and keyring derivation.
// Probes, not part of any op.
func (w *farmControl) probeCodecs(t *tracer, ls *layerStats) {
	id := t.begin("probe.codecs", -1)
	defer t.end(id)
	jobs := w.batches[0]
	n := float64(len(jobs))

	envs := make([]*farm.Envelope, len(jobs))
	for i, j := range jobs {
		envs[i] = &farm.Envelope{Type: farm.MsgResult, From: 1, To: farm.Coordinator, Job: j.ID,
			Image: j.Image, Config: j.Config, Digest: stubDigest(j), Source: stubSource(j),
			Ring: stubRing(j), Status: "ok", Sig: make([]byte, 64)}
	}
	wire := make([][]byte, len(envs))
	d := t.do("farm.envelope_encode", -1, func() {
		for i, e := range envs {
			wire[i] = e.MarshalBinary()
		}
	})
	ls.obs("farm.envelope_encode_ns", float64(d)/n)
	d = t.do("farm.envelope_decode", -1, func() {
		for _, buf := range wire {
			farm.DecodeEnvelope(buf)
		}
	})
	ls.obs("farm.envelope_decode_ns", float64(d)/n)

	shards := farm.NewShards(8)
	d = t.do("farm.shard_put", -1, func() {
		for _, j := range jobs {
			shards.PutSeal(derive.SealKey{State: derive.KeyFor(j.Image, j.Config), Job: j.ID, Ordinal: 1}, j.ID, stubDigest(j))
		}
	})
	ls.obs("farm.shard_put_us", float64(d)/1e3/n)
	d = t.do("farm.shard_get", -1, func() {
		for _, j := range jobs {
			shards.Seal(derive.SealKey{State: derive.KeyFor(j.Image, j.Config), Job: j.ID, Ordinal: 1})
		}
	})
	ls.obs("farm.shard_get_us", float64(d)/1e3/n)

	keySeed := w.config(true).KeySeed
	var ring *attest.Keyring
	ls.us("attest.keyring_us", t.do("attest.keyring", -1, func() { ring = attest.NewKeyring(3, keySeed) }))
	signers := []*attest.Signer{attest.NewSigner(1, keySeed), attest.NewSigner(2, keySeed), attest.NewSigner(3, keySeed)}
	statement := func(j farm.Job) attest.Statement {
		return attest.Statement{Subject: stubSubject(j), Job: j.ID, Output: stubDigest(j), Ring: stubRing(j)}
	}
	atts := make([]attest.Attestation, len(jobs))
	d = t.do("attest.sign", -1, func() {
		for i, j := range jobs {
			atts[i] = signers[0].Attest(statement(j), attest.RolePrimary)
		}
	})
	ls.obs("attest.sign_us", float64(d)/1e3/n)
	d = t.do("attest.verify_sig", -1, func() {
		for _, a := range atts {
			ring.Verify(a)
		}
	})
	ls.obs("attest.verify_sig_us", float64(d)/1e3/n)
	d = t.do("attest.codec", -1, func() {
		for i := range atts {
			attest.DecodeAttestation(atts[i].MarshalBinary())
		}
	})
	ls.obs("attest.codec_ns", float64(d)/n)

	// Admission over a three-builder pool and epoch sealing of the records
	// it admits, four to an epoch like the farm's default.
	pools := make([][]attest.Attestation, len(jobs))
	for i, j := range jobs {
		st := statement(j)
		pools[i] = []attest.Attestation{signers[0].Attest(st, attest.RolePrimary),
			signers[1].Attest(st, attest.RoleRebuilder), signers[2].Attest(st, attest.RoleRebuilder)}
	}
	records := make([]attest.Record, 0, len(jobs))
	d = t.do("attest.admit", -1, func() {
		for _, pool := range pools {
			if adm := attest.Admit(ring, []int32{1, 2, 3}, pool, 2); adm.OK {
				records = append(records, adm.Record)
			}
		}
	})
	ls.obs("attest.admit_us", float64(d)/1e3/n)
	chain := attest.NewChain()
	epochs := 0
	d = t.do("attest.chain_seal", -1, func() {
		for i := 0; i+4 <= len(records); i += 4 {
			chain.Seal(records[i:i+4], []int32{0, 1, 2, 3})
			epochs++
		}
	})
	if epochs > 0 {
		ls.obs("attest.chain_seal_us", float64(d)/1e3/float64(epochs))
	}
}
