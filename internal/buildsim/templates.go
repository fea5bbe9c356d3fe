// Container-template reuse for the build farm: fork once, build everywhere.
//
// Setting up one simulated build used to cost three image-sized passes —
// assembling the toolchain chroot, materializing the package source into it,
// and populating the result into a fresh kernel filesystem — repeated for
// every one of a package's four (or more) builds. All three passes are pure
// functions of (spec, build root, container config), so the farm now
// memoizes them in bounded derivation stores: materialized images, and on top
// of those the prepared boot state — kernel.Snapshot for baseline builds,
// core.Template for DetTrace builds — keyed by (image content hash, config
// hash). A run then COW-forks the frozen template instead of repopulating it.
//
// The reuse must be invisible. Forked boots are pinned bitwise-identical to
// cold boots (kernel.TestSnapshotBootEqualsCold, core.TestTemplateForkEqualsCold),
// templates are immutable after construction, and nothing order-dependent
// escapes the caches — so farm output stays independent of Jobs, of cache
// hit/miss order, and of the DisableTemplates ablation. templates_test.go
// pins all three. Only the setup accounting below may move.
package buildsim

import (
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
)

// templateCap bounds the snapshot and the template store. Templates pin their
// image and frozen filesystem, so the cap is the farm's working-set size:
// large enough that one package's builds and the portability/ablation
// profile variants all hit, small enough that a 17k-package universe cannot
// accumulate 17k toolchain trees. The image memo holds twice as many — images
// back the templates, and the native-build variants (one per build root) sit
// alongside them.
const templateCap = 32

// setupCounters is the farm's setup accounting, held as handles into the
// farm's obs registry (see Options.Obs) so roll-ups and the Prometheus dump
// see the same numbers the studies report. The counters are sharded atomics:
// each worker adds on its own stripe (the obs.Local threaded through
// forEach), so the Jobs-wide pool shares one Options without contending.
// None of it feeds back into build results.
type setupCounters struct {
	templateHits   *obs.Counter
	templateMisses *obs.Counter
	evictions      *obs.Counter
	imageBuilds    *obs.Counter
	imageHits      *obs.Counter
	coldBoots      *obs.Counter
	forkBoots      *obs.Counter

	// Recorder roll-up: flight-recorder events produced by container runs,
	// split by setup path so the templates study can price the recorder per
	// fork vs cold boot.
	recEventsFork *obs.Counter
	recEventsCold *obs.Counter

	// Fault-plane accounting (faults.go): checkpoint seals, injected
	// crashes, and how the farm recovered from them. Like all farm counters,
	// bookkeeping only — recovery outcomes never feed back into results.
	// Derivation-store accounting (ISSUE 8, incremental.go): seal forks at
	// phase granularity, compile units reused vs re-executed, and how often
	// an incremental rebuild went through versus degrading to cold.
	derivePhaseHits   *obs.Counter
	derivePhaseMisses *obs.Counter
	deriveUnitsReused *obs.Counter
	deriveUnitsRedone *obs.Counter
	incrRebuilds      *obs.Counter
	incrCold          *obs.Counter

	ckptSealed      *obs.Counter
	ckptEvictions   *obs.Counter
	crashes         *obs.Counter
	restoreAttempts *obs.Counter
	restores        *obs.Counter
	restoreFailures *obs.Counter
	ckptInvalid     *obs.Counter
	coldReplays     *obs.Counter
	backoffNs       *obs.Counter
	mttrNs          *obs.Counter
	replayNs        *obs.Counter
	redoneNs        *obs.Counter

	// Seal-size accounting (ISSUE 9, ttd.go): bytes a delta seal actually
	// stored (fresh data only) vs bytes the equivalent full seals hold.
	// Booked here at the farm layer — never inside core.sealCheckpoint —
	// because attaching a checkpoint sink must not perturb a run's own
	// metrics registry (the bitwise equivalence tests compare those).
	ckptDeltaBytes *obs.Counter
	ckptFullBytes  *obs.Counter
}

// SetupStats is a point-in-time snapshot of the farm's container-setup
// accounting: how often prepared state was reused and which path each boot
// took. Counts only — what a path costs on the host clock is bench/'s
// boot-churn workload's to measure. Build outputs never depend on it.
type SetupStats struct {
	TemplateHits   int64 // prepared snapshot/template served from cache
	TemplateMisses int64 // prepared on demand
	Evictions      int64 // image/snapshot/template entries evicted at the cap
	ImageBuilds    int64 // toolchain images assembled + materialized
	ImageHits      int64 // image requests served from the memo

	ColdBoots int64 // kernels/containers built on the cold path
	ForkBoots int64 // kernels/containers forked from a template

	RecEventsFork int64 // flight-recorder events from forked containers
	RecEventsCold int64 // flight-recorder events from cold-booted containers
}

// SetupStats snapshots the farm's setup accounting so far.
func (o *Options) SetupStats() SetupStats {
	sc := o.sc()
	return SetupStats{
		TemplateHits:   sc.templateHits.Value(),
		TemplateMisses: sc.templateMisses.Value(),
		Evictions:      sc.evictions.Value(),
		ImageBuilds:    sc.imageBuilds.Value(),
		ImageHits:      sc.imageHits.Value(),
		ColdBoots:      sc.coldBoots.Value(),
		ForkBoots:      sc.forkBoots.Value(),
		RecEventsFork:  sc.recEventsFork.Value(),
		RecEventsCold:  sc.recEventsCold.Value(),
	}
}

// Obs returns the farm-wide metrics registry: the setup counters above plus
// every container run's absorbed per-run registry (kernel per-syscall table,
// tracer stop/buffer accounting). Lazily created; safe under the pool.
func (o *Options) Obs() *obs.Registry {
	o.cacheMu.Lock()
	defer o.cacheMu.Unlock()
	o.initObsLocked()
	return o.obsReg
}

// sc returns the initialized setup-counter handles.
func (o *Options) sc() *setupCounters {
	o.cacheMu.Lock()
	defer o.cacheMu.Unlock()
	o.initObsLocked()
	return &o.setup
}

// initObsLocked creates the farm registry and counter handles once; callers
// hold cacheMu.
func (o *Options) initObsLocked() {
	if o.obsReg != nil {
		return
	}
	r := obs.NewRegistry()
	o.setup = setupCounters{
		templateHits:   r.Counter("farm_template_hits"),
		templateMisses: r.Counter("farm_template_misses"),
		evictions:      r.Counter("farm_cache_evictions"),
		imageBuilds:    r.Counter("farm_image_builds"),
		imageHits:      r.Counter("farm_image_hits"),
		coldBoots:      r.Counter("farm_cold_boots"),
		forkBoots:      r.Counter("farm_fork_boots"),
		recEventsFork:  r.Counter("farm_rec_events_fork"),
		recEventsCold:  r.Counter("farm_rec_events_cold"),

		derivePhaseHits:   r.Counter("farm_derive_phase_hits"),
		derivePhaseMisses: r.Counter("farm_derive_phase_misses"),
		deriveUnitsReused: r.Counter("farm_derive_units_reused"),
		deriveUnitsRedone: r.Counter("farm_derive_units_redone"),
		incrRebuilds:      r.Counter("farm_incremental_rebuilds"),
		incrCold:          r.Counter("farm_incremental_cold"),

		ckptSealed:      r.Counter("farm_checkpoints_sealed"),
		ckptEvictions:   r.Counter("farm_checkpoint_evictions"),
		crashes:         r.Counter("farm_crashes_injected"),
		restoreAttempts: r.Counter("farm_restore_attempts"),
		restores:        r.Counter("farm_restores"),
		restoreFailures: r.Counter("farm_restore_failures"),
		ckptInvalid:     r.Counter("farm_checkpoint_invalid"),
		coldReplays:     r.Counter("farm_cold_replays"),
		backoffNs:       r.Counter("farm_backoff_ns"),
		mttrNs:          r.Counter("farm_mttr_ns"),
		replayNs:        r.Counter("farm_replay_ns"),
		redoneNs:        r.Counter("farm_redone_ns"),

		ckptDeltaBytes: r.Counter("checkpoint_delta_bytes"),
		ckptFullBytes:  r.Counter("checkpoint_full_bytes"),
	}
	o.obsReg = r
	o.deriveRec = obs.NewRecorder(obs.DefaultRingEvents)
}

// Derivation-event granularities, carried in Event.Ret (see obs.KindDeriveHit).
const (
	deriveGranTemplate = 0 // prepared snapshot/template
	deriveGranPhase    = 1 // checkpoint seal forked for a rebuild
	deriveGranUnit     = 2 // compile units reused / re-executed (Num = count)
)

// recordDerive books one derivation-store lookup outcome on the farm's
// derive ring (Arg = derivation key hash, Ret = granularity, Num = ordinal
// or unit count) and bumps the phase-granularity counters. The ring is
// farm-level metadata: lookups happen on whatever worker got there first,
// so event order is scheduling-dependent and must never be compared across
// runs — only aggregated.
func (o *Options) recordDerive(l obs.Local, hit bool, gran int, keyHash uint64, n int32) {
	sc := o.sc()
	kind := obs.KindDeriveMiss
	if hit {
		kind = obs.KindDeriveHit
	}
	if gran == deriveGranPhase {
		if hit {
			sc.derivePhaseHits.Add(l, 1)
		} else {
			sc.derivePhaseMisses.Add(l, 1)
		}
	}
	o.deriveMu.Lock()
	o.deriveLTime++
	o.deriveRec.Record(o.deriveLTime, kind, n, 0, keyHash, int64(gran))
	o.deriveMu.Unlock()
}

// DeriveTrace returns the farm's retained derivation-store events (for
// `benchtab -incremental` and debugging): reuse observability at template,
// phase and unit granularity.
func (o *Options) DeriveTrace() []obs.Event {
	o.sc() // ensure initObsLocked ran
	o.deriveMu.Lock()
	defer o.deriveMu.Unlock()
	return o.deriveRec.Events()
}

// stores is the per-Options prepared state: materialized images, baseline
// kernel snapshots, DetTrace container templates, and — in checkpoint mode —
// the sealed mid-run checkpoints of in-flight jobs. Four bounded instances of
// the one derivation store, so each keeps its own cap and LRU order; on a
// farm worker the coordinator's single store stands in for the last three.
//
// Every key derives through derive.KeyFor — the one shared (image content
// hash, config hash) derivation this package and the distributed farm both
// use — so the stores cannot drift in what "the same prepared state" means
// (snapshots use a zero config slot: a prepared kernel depends only on the
// image; images, whose content hash is not known before they are built, are
// memoized under the spec's identity hash and the build root's).
type stores struct {
	images    *derive.MemStore // (spec identity, build root) -> *imageEntry
	snapshots *derive.MemStore // derive.Key (config 0) -> *kernel.Snapshot
	templates *derive.MemStore // derive.Key -> *core.Template
	seals     *derive.MemStore // derive.SealKey -> *core.Checkpoint
}

type imageEntry struct {
	img    *fs.Image
	pkgdir string
	hash   uint64
}

func (o *Options) stores() *stores {
	o.cacheMu.Lock()
	defer o.cacheMu.Unlock()
	o.initObsLocked()
	if o.store == nil {
		n, nseals := templateCap, sealCap
		if o.templateCap > 0 {
			n = o.templateCap
		}
		if o.sealCap > 0 {
			nseals = o.sealCap
		}
		evicted := func() { o.setup.evictions.Inc(1) }
		o.store = &stores{
			images:    derive.NewStore(1, 2*n, evicted),
			snapshots: derive.NewStore(1, n, evicted),
			templates: derive.NewStore(1, n, evicted),
			seals:     derive.NewStore(1, nseals, func() { o.setup.ckptEvictions.Inc(1) }),
		}
	}
	return o.store
}

// pkgImage returns the package's toolchain image, its source directory, and
// the image content hash. With templates enabled the materialized image is
// memoized — it is only ever read after construction (kernel populate,
// template prepare), so sharing one *fs.Image across concurrent builds is
// safe. Under the ablation every call rebuilds, like the pre-template farm,
// so the cold farm pays the real cold cost — hashing included: seal keys and
// attestation subjects carry the content hash either way.
func (o *Options) pkgImage(l obs.Local, spec *debpkg.Spec, dir string) (*fs.Image, string, uint64) {
	sc := o.sc()
	build := func() *imageEntry {
		img, pkgdir := toolchainImage(spec, dir)
		sc.imageBuilds.Add(l, 1)
		return &imageEntry{img: img, pkgdir: pkgdir, hash: img.Hash()}
	}
	var ie *imageEntry
	if o.DisableTemplates {
		ie = build()
	} else {
		key := derive.KeyFor(pkgSeed(0, spec), derive.DigestBytes([]byte(dir)))
		v, hit := derive.Prepared(o.stores().images, key, func() any { return build() })
		if hit {
			sc.imageHits.Add(l, 1)
		}
		ie = v.(*imageEntry)
	}
	return ie.img, ie.pkgdir, ie.hash
}

// prepared serves one piece of prepared boot state from store, building it
// on first use, and books the lookup. The value is nil when the store is a
// transport that carries no bodies; callers then boot cold.
func (o *Options) prepared(l obs.Local, store derive.Store, key derive.Key, build func() any) any {
	sc := o.sc()
	v, hit := derive.Prepared(store, key, build)
	if hit {
		sc.templateHits.Add(l, 1)
	} else {
		sc.templateMisses.Add(l, 1)
	}
	o.recordDerive(l, hit, deriveGranTemplate, key.Hash(), 0)
	return v
}

// snapshot returns the prepared baseline-kernel snapshot for an image.
func (o *Options) snapshot(l obs.Local, store derive.Store, imgHash uint64, img *fs.Image) *kernel.Snapshot {
	snap, _ := o.prepared(l, store, derive.KeyFor(imgHash, 0), func() any {
		return kernel.Prepare(kernel.Config{
			Profile:  machine.CloudLabC220G5(),
			Image:    img,
			Resolver: registry().Resolver(),
		})
	}).(*kernel.Snapshot)
	return snap
}
