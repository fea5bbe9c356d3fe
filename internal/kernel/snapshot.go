package kernel

import (
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prng"
)

// Snapshot is the prepared, immutable half of a boot: the populated
// filesystem (frozen as a COW template base), the machine profile, the cost
// model and the program resolver. Everything per-run — entropy pool, clocks,
// run queues, device instances, the /proc pseudo files, the policy — is
// rebuilt by Boot, which is why one Snapshot can back any number of
// concurrent runs under any policy.
//
// The paper's §3 purity argument is what makes this sound: a container's
// behaviour is a function of its initial filesystem state, so sharing that
// state (read-only) between runs cannot couple them. Boot's warm path is
// pinned bitwise-identical to New's cold path by TestSnapshotBootEqualsCold
// and, end to end, by the template equivalence tests in internal/core and
// internal/buildsim.
type Snapshot struct {
	Profile  *machine.Profile
	Cost     CostModel
	Resolver Resolver

	base *fs.FS
}

// BootConfig is the per-run half of Config: everything that varies between
// two boots of the same prepared image.
type BootConfig struct {
	Seed       uint64 // host entropy seed: "which physical run is this"
	Epoch      int64  // wall-clock seconds at boot
	Policy     Policy // nil means the baseline nondeterministic policy
	Deadline   int64
	MaxActions int64
	NumCPU     int
	// Resolver overrides the snapshot's resolver when non-nil, for callers
	// (like core.Container.Run) that receive the program registry per run.
	Resolver Resolver
	// Obs/Rec mirror Config.Obs/Config.Rec: per-run observability sinks.
	Obs *obs.Registry
	Rec *obs.Recorder
	// CrashAtAction/Checkpointer mirror the Config fault/checkpoint plane.
	CrashAtAction int64
	Checkpointer  func(*Checkpoint, *Thread)
	// DeltaSeals/HaltAtAction/HaltAtLTime mirror the Config delta-seal and
	// debugger-halt knobs.
	DeltaSeals   bool
	HaltAtAction int64
	HaltAtLTime  int64
}

// Prepare builds the shareable half of a boot from the config's Profile,
// Image, Cost and Resolver; the per-run Config fields are ignored. The
// populated filesystem is frozen: the throwaway construction-time inode
// numbers and timestamps it carries are never observable, because every
// Boot renumbers and restamps them through fs.Fork.
func Prepare(cfg Config) *Snapshot {
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	base := fs.New(cfg.Profile, func() int64 { return 0 }, prng.NewHost(0))
	if cfg.Image != nil {
		base.Populate(cfg.Image)
	}
	base.Freeze()
	return &Snapshot{Profile: cfg.Profile, Cost: cfg.Cost, Resolver: cfg.Resolver, base: base}
}

// Boot instantiates a runnable kernel from the snapshot. It is the warm
// twin of ColdBoot: instead of populating the image into a fresh FS it COW-forks
// the frozen base, and the fork consumes exactly the entropy a cold
// fs.New would have, so the booted kernel is bitwise indistinguishable from
// a cold boot with the same image and BootConfig. Safe to call from any
// number of goroutines at once.
func (s *Snapshot) Boot(b BootConfig) *Kernel {
	if b.Resolver == nil {
		b.Resolver = s.Resolver
	}
	return newKernel(s.Profile, s.Cost, b, func(k *Kernel, fsEntropy *prng.Host) *fs.FS {
		return s.base.Fork(k.WallClock, fsEntropy)
	})
}
