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
// The reuse must be invisible. Boots of a shared snapshot are pinned
// bitwise-identical to boots of a private one
// (kernel.TestSnapshotBootEqualsCold, core.TestTemplateForkEqualsCold),
// templates are immutable after construction, and nothing order-dependent
// escapes the caches — so farm output stays independent of Jobs, of cache
// hit/miss order, and of the template-reuse row being off. The mechanism
// matrix and templates_test.go pin all three. Only the setup accounting below
// may move.
//
// Every farm count has one home: a plain int64 field of Options (SetupStats,
// FaultStats, and the incremental-rebuild and seal-size counts beside them),
// bumped in place with atomic.AddInt64. Nothing counts into a registry;
// Options.Obs publishes the fields under their farm_*/checkpoint_* names,
// from one list, each time it is called.
package buildsim

import (
	"sync/atomic"

	"repro/internal/core"
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

// SetupStats is the farm's container-setup accounting: how often prepared
// state was reused and which path each boot took. Counts only — what a path
// costs on the host clock is bench/'s boot-churn workload's to measure.
// Build outputs never depend on it.
type SetupStats struct {
	TemplateHits   int64 // prepared snapshot/template served from cache
	TemplateMisses int64 // prepared on demand
	Evictions      int64 // image/snapshot/template entries evicted at the cap
	ImageBuilds    int64 // toolchain images assembled + materialized
	ImageHits      int64 // image requests served from the memo

	ColdBoots int64 // kernels/containers booted from a private snapshot
	ForkBoots int64 // kernels/containers forked from a shared snapshot or template

	// Flight-recorder events produced by container runs, split by setup path
	// so the templates study can price the recorder per fork vs cold boot.
	RecEventsFork int64 // flight-recorder events from forked containers
	RecEventsCold int64 // flight-recorder events from privately booted containers
}

// SetupStats returns a copy of the farm's setup counts. Call it once
// BuildAll or the study has returned: until then the pool's workers are
// still bumping them.
func (o *Options) SetupStats() SetupStats { return o.setup }

// Obs returns the farm's metrics registry with every farm count published
// into it as it stands now: the setup and fault counts, the incremental
// rebuild counts and the seal sizes, beside the metrics every container run
// absorbed (kernel per-syscall table, tracer stop/buffer accounting) and
// the ttd sessions' counters. Safe while the pool runs — each count is read
// with an atomic load — and a later call publishes the counts afresh.
func (o *Options) Obs() *obs.Registry {
	r := o.reg()
	s, f := &o.setup, &o.faults
	for _, m := range [...]struct {
		name string
		v    *int64
	}{
		{"farm_template_hits", &s.TemplateHits},
		{"farm_template_misses", &s.TemplateMisses},
		{"farm_cache_evictions", &s.Evictions},
		{"farm_image_builds", &s.ImageBuilds},
		{"farm_image_hits", &s.ImageHits},
		{"farm_cold_boots", &s.ColdBoots},
		{"farm_fork_boots", &s.ForkBoots},
		{"farm_rec_events_fork", &s.RecEventsFork},
		{"farm_rec_events_cold", &s.RecEventsCold},

		// One phase-granularity seal lookup per rebuild: a hit is a forked
		// rebuild, a miss a cold one.
		{"farm_derive_phase_hits", &o.incrRebuilds},
		{"farm_incremental_rebuilds", &o.incrRebuilds},
		{"farm_derive_phase_misses", &o.incrCold},
		{"farm_incremental_cold", &o.incrCold},
		{"farm_derive_units_reused", &o.unitsReused},
		{"farm_derive_units_redone", &o.unitsRedone},

		{"farm_checkpoints_sealed", &f.Sealed},
		{"farm_checkpoint_evictions", &f.CkptEvictions},
		{"farm_crashes_injected", &f.Crashes},
		{"farm_restore_attempts", &f.Attempts},
		{"farm_restores", &f.Restores},
		{"farm_restore_failures", &f.RestoreFailed},
		{"farm_checkpoint_invalid", &f.Invalid},
		{"farm_cold_replays", &f.ColdReplays},
		{"farm_backoff_ns", &f.BackoffNs},
		{"farm_mttr_ns", &f.MTTRNs},
		{"farm_replay_ns", &f.ReplayNs},
		{"farm_redone_ns", &f.RedoneNs},

		{"checkpoint_delta_bytes", &o.ckptDeltaBytes},
		{"checkpoint_full_bytes", &o.ckptFullBytes},
	} {
		r.Publish(m.name, atomic.LoadInt64(m.v))
	}
	return r
}

// reg returns the farm's registry, created on first use. Container runs
// absorb their published metrics into it directly, so publishing the farm
// counts stays off the per-run path.
func (o *Options) reg() *obs.Registry {
	o.cacheMu.Lock()
	defer o.cacheMu.Unlock()
	if o.obsReg == nil {
		o.obsReg = obs.NewRegistry()
	}
	return o.obsReg
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
	if o.store == nil {
		n, nseals := templateCap, sealCap
		if o.templateCap > 0 {
			n = o.templateCap
		}
		if o.sealCap > 0 {
			nseals = o.sealCap
		}
		evicted := func() { atomic.AddInt64(&o.setup.Evictions, 1) }
		o.store = &stores{
			images:    derive.NewStore(1, 2*n, evicted),
			snapshots: derive.NewStore(1, n, evicted),
			templates: derive.NewStore(1, n, evicted),
			seals:     derive.NewStore(1, nseals, func() { atomic.AddInt64(&o.faults.CkptEvictions, 1) }),
		}
	}
	return o.store
}

// pkgImage returns the package's toolchain image, its source directory, and
// the image content hash. With templates enabled the materialized image is
// memoized — it is only ever read after construction (kernel populate,
// template prepare), so sharing one *fs.Image across concurrent builds is
// safe. Under the ablation every call rebuilds, like the pre-template farm,
// so the cold farm pays the real unshared cost — hashing included: seal keys
// and attestation subjects carry the content hash either way.
func (o *Options) pkgImage(spec *debpkg.Spec, dir string) (*fs.Image, string, uint64) {
	build := func() *imageEntry {
		img, pkgdir := toolchainImage(spec, dir)
		atomic.AddInt64(&o.setup.ImageBuilds, 1)
		return &imageEntry{img: img, pkgdir: pkgdir, hash: img.Hash()}
	}
	var ie *imageEntry
	if o.Off.Has(core.TemplateReuse) {
		ie = build()
	} else {
		key := derive.KeyFor(pkgSeed(0, spec), derive.DigestBytes([]byte(dir)))
		v, hit := derive.Prepared(o.stores().images, key, func() any { return build() })
		if hit {
			atomic.AddInt64(&o.setup.ImageHits, 1)
		}
		ie = v.(*imageEntry)
	}
	return ie.img, ie.pkgdir, ie.hash
}

// prepared serves one piece of prepared boot state from store, building it
// on first use, and books the lookup.
func (o *Options) prepared(store derive.Store, key derive.Key, build func() any) any {
	v, hit := derive.Prepared(store, key, build)
	if hit {
		atomic.AddInt64(&o.setup.TemplateHits, 1)
	} else {
		atomic.AddInt64(&o.setup.TemplateMisses, 1)
	}
	return v
}

// snapshot returns the baseline-kernel snapshot one boot of an image forks:
// the store's shared one, or under the template ablation a private one
// prepared for this boot alone. It books the boot.
func (o *Options) snapshot(store derive.Store, imgHash uint64, img *fs.Image) *kernel.Snapshot {
	prepare := func() any {
		return kernel.Prepare(kernel.Config{
			Profile:  machine.CloudLabC220G5(),
			Image:    img,
			Resolver: registry().Resolver(),
		})
	}
	if o.Off.Has(core.TemplateReuse) {
		atomic.AddInt64(&o.setup.ColdBoots, 1)
		return prepare().(*kernel.Snapshot)
	}
	atomic.AddInt64(&o.setup.ForkBoots, 1)
	snap, _ := o.prepared(store, derive.KeyFor(imgHash, 0), prepare).(*kernel.Snapshot)
	return snap
}
