package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/derive"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// Template is a prepared container: the expensive, run-independent half of
// New — the populated-and-frozen filesystem snapshot — built once and shared
// by every container forked from it. The cheap, run-dependent half
// (virtualization maps, scheduler, PRNG, tracer session) is rebuilt per
// NewContainer call, so forked containers are bitwise indistinguishable from cold-built ones; the
// equivalence tests in template_test.go and internal/buildsim pin that.
//
// A Template is compatible only with its exact container configuration:
// reusing a base across, say, a DisableDirSizes ablation and a full run
// would silently leak one config into the other. ConfigHash captures every
// behaviour-relevant Config field, and caches (internal/buildsim) key on
// (image hash, config hash) so an incompatible reuse cannot happen.
type Template struct {
	cfg       Config // normalized; host fields are placeholders
	snap      *kernel.Snapshot
	hash      uint64
	imageHash uint64

	// PrepareNs is real time spent preparing the snapshot (populate +
	// freeze), surfaced as the "prepare" span of containers forked from
	// this template. Benchmarking metadata, like Result.SetupNs.
	PrepareNs int64
}

// HostRun names the physical run a container executes as: the [host]
// Config fields that a template deliberately does not bake in.
type HostRun struct {
	Seed   uint64 // host entropy: "which physical machine boot is this"
	Epoch  int64  // wall-clock seconds at boot
	NumCPU int    // core count override (0 = profile's)

	// CheckpointSink and FaultCorruptCheckpoint are the per-run checkpoint
	// observers (see Config): mechanism-level, excluded from ConfigHash,
	// and deliberately not baked into the template so each forked container
	// gets its own.
	CheckpointSink         func(*Checkpoint)
	FaultCorruptCheckpoint int
}

// NewTemplate prepares a reusable container template from cfg. The [host]
// fields of cfg (HostSeed, Epoch, NumCPU) are ignored — they arrive per
// run via HostRun — as are the per-run observers (Debug, CheckpointSink,
// FaultCorruptCheckpoint): baking one requester's sink closure into a shared
// template would leak it into every container forked later.
func NewTemplate(cfg Config) *Template {
	normalizeConfig(&cfg)
	cfg.HostSeed, cfg.Epoch, cfg.NumCPU = 0, 0, 0
	cfg.Debug = nil
	cfg.CheckpointSink = nil
	cfg.FaultCorruptCheckpoint = 0
	cfg.HaltAtLTime, cfg.HaltAtAction = 0, 0 // per-run debugger knobs, like the sinks
	tp := &Template{
		cfg:  cfg,
		hash: ConfigHash(cfg),
	}
	if cfg.Image != nil {
		tp.imageHash = cfg.Image.Hash()
	}
	prepStart := time.Now()
	tp.snap = kernel.Prepare(kernel.Config{
		Profile: cfg.Profile,
		Image:   cfg.Image,
	})
	tp.PrepareNs = time.Since(prepStart).Nanoseconds()
	return tp
}

// NewContainer forks a ready-to-Run container for one physical run. The
// returned container boots the template's frozen filesystem snapshot
// (unless the config's DisableTemplateReuse ablation forces the cold path).
func (tp *Template) NewContainer(h HostRun) *Container {
	cfg := tp.cfg
	cfg.HostSeed, cfg.Epoch, cfg.NumCPU = h.Seed, h.Epoch, h.NumCPU
	cfg.CheckpointSink = h.CheckpointSink
	cfg.FaultCorruptCheckpoint = h.FaultCorruptCheckpoint
	c := newContainer(cfg)
	c.snap = tp.snap
	c.spans = append(c.spans, obs.Span{Name: "prepare", RealNs: tp.PrepareNs})
	return c
}

// ConfigHash returns the template's configuration hash.
func (tp *Template) ConfigHash() uint64 { return tp.hash }

// ImageHash returns the content hash of the template's image (0 if none).
func (tp *Template) ImageHash() uint64 { return tp.imageHash }

// CompatibleWith reports whether a container built from this template would
// behave identically to core.New(cfg): same image content, same
// behaviour-relevant configuration.
func (tp *Template) CompatibleWith(cfg Config) bool {
	normalizeConfig(&cfg)
	if ConfigHash(cfg) != tp.hash {
		return false
	}
	switch {
	case cfg.Image == nil:
		return tp.imageHash == 0
	default:
		return cfg.Image.Hash() == tp.imageHash
	}
}

// ConfigHash hashes every Config field that can change container behaviour.
// Excluded on purpose: the [host] fields (HostSeed, Epoch, NumCPU) — those
// vary per run by design and must not affect output; Image — content is
// keyed separately via Image.Hash, so caches can share one config hash
// across many images; Debug (an observer); and RingEvents (the recorder
// observes, it never feeds back). The Disable* switches are hashed or not as
// their row in the mechanism table says. FaultInjectEntropy IS hashed:
// perturbing an entropy draw changes guest-visible bytes by design. So is
// FaultInjectCrash — it changes how far the run gets — while
// FaultCorruptCheckpoint and CheckpointSink stay out: checkpoints observe the
// run, they never feed back (checkpoint validation uses recoveryHash, which
// re-zeroes the crash knob, since a recovery deliberately clears it).
// HaltAtLTime/HaltAtAction stay out: a halted replay observes a strict prefix
// of the run and its result never enters a cache, and keeping them unhashed
// is what lets a debugger seek resume pass checkpoint validation
// (recoveryHash) while halting early.
//
// The Profile IS included even though it is [host]-marked: the prepared
// filesystem bakes in profile-derived state (the readdir hash salt, the
// directory-size formula), so a template must never serve a run on a
// different simulated machine.
func ConfigHash(cfg Config) uint64 {
	normalizeConfig(&cfg)
	h := derive.NewHasher()
	h.Str(cfg.Profile.Name)
	h.Num(cfg.PRNGSeed)
	h.Num(uint64(cfg.LogicalEpoch))
	h.Num(uint64(cfg.Deadline))
	for m := range NumMechanisms {
		if m.Unhashed() == "" {
			h.Flag(*m.field(&cfg))
		}
	}
	h.Str(cfg.WorkingDir)
	h.Num(uint64(cfg.SpinLimit))
	h.Flag(cfg.UpdateVirtualMtimes)
	h.Flag(cfg.FastVdso)
	h.Flag(cfg.ExperimentalSockets)
	h.Flag(cfg.ExperimentalSignals)
	h.Flag(cfg.LogRealRandom)
	h.Num(uint64(cfg.FaultInjectEntropy))
	h.Num(uint64(cfg.FaultInjectCrash))
	h.Data(cfg.RandomReplay)
	urls := make([]string, 0, len(cfg.Downloads))
	for u := range cfg.Downloads {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		d := cfg.Downloads[u]
		h.Str(u)
		h.Str(d.SHA256)
		h.Data(d.Data)
	}
	return h.Sum()
}

// String identifies the template in logs and cache debug output.
func (tp *Template) String() string {
	return fmt.Sprintf("template(image=%016x cfg=%016x)", tp.imageHash, tp.hash)
}
