package kernel

import (
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prng"
)

// Snapshot is the prepared, immutable half of a boot: the populated
// filesystem (frozen as a COW template base), the machine profile and the
// program resolver. Everything per-run — entropy pool, clocks, run queues,
// device instances, the /proc pseudo files, the policy — is rebuilt by Boot,
// which is why one Snapshot can back any number of concurrent runs under any
// policy.
//
// The paper's §3 purity argument is what makes this sound: a container's
// behaviour is a function of its initial filesystem state, so sharing that
// state (read-only) between runs cannot couple them. Boot's warm path is
// pinned bitwise-identical to New's cold path by TestSnapshotBootEqualsCold
// and, end to end, by the template equivalence tests in internal/core and
// internal/buildsim.
type Snapshot struct {
	Profile  *machine.Profile
	Resolver Resolver

	base *fs.FS
}

// BootConfig is the per-run half of a boot: everything that varies between
// two boots of the same prepared image.
type BootConfig struct {
	Seed   uint64 // host entropy seed: "which physical run is this"
	Epoch  int64  // wall-clock seconds at boot (reprotest varies this)
	Policy Policy // nil means the baseline nondeterministic policy
	// Deadline bounds virtual time (ns); 0 means no limit.
	Deadline int64
	// MaxActions bounds processed actions; 0 picks a generous default.
	MaxActions int64
	// NumCPU overrides the profile's core count (reprotest varies CPUs).
	NumCPU int
	// Resolver overrides the prepared Config's resolver when non-nil, for
	// callers (like core.Container.Run) that receive the program registry
	// per run.
	Resolver Resolver

	// Obs, when non-nil, is the metrics registry this boot's counters land
	// on (a private registry is created otherwise). Rec, when non-nil, is
	// the flight recorder event sinks write to; a nil recorder records
	// nothing (the DisableObservability ablation). Neither feeds back into
	// guest-visible state.
	Obs *obs.Registry
	Rec *obs.Recorder

	// CrashAtAction, when > 0, is the deterministic fault plane: Run fails
	// with ErrInjectedCrash once the processed-action count reaches it. The
	// action count is a pure function of guest behaviour (independent of
	// observability or templates), so the same config crashes at the same
	// traced stop on every run.
	CrashAtAction int64

	// Checkpointer, when non-nil, is offered a sealed Checkpoint (plus the
	// surviving thread, for policy-side sealing) at every quiescent traced
	// stop. Sealing is read-only and fires only at stops a checkpoint-free
	// run reaches identically, so attaching a checkpointer never perturbs
	// guest-visible behaviour.
	Checkpointer func(*Checkpoint, *Thread)

	// DeltaSeals makes every checkpoint after the first a delta against the
	// previous seal (fs.SealCheckpoint's delta mode). Mechanism-only: seals
	// restore bitwise-identically either way.
	DeltaSeals bool

	// HaltAtAction / HaltAtLTime, when > 0, stop the run with ErrHalted at
	// the first top-of-loop stop where the processed-action count (resp. the
	// logical clock) has reached the given value — the time-travel debugger's
	// seek primitive. Both are pure functions of guest behaviour, so a halted
	// replay observes exactly the state the uninterrupted run passed through.
	HaltAtAction int64
	HaltAtLTime  int64
}

// Prepare builds the shareable half of a boot from cfg. The populated
// filesystem is frozen: the throwaway construction-time inode numbers and
// timestamps it carries are never observable, because every Boot renumbers
// and restamps them through fs.Fork.
func Prepare(cfg Config) *Snapshot {
	base := fs.New(cfg.Profile, func() int64 { return 0 }, prng.NewHost(0))
	if cfg.Image != nil {
		base.Populate(cfg.Image)
	}
	base.Freeze()
	return &Snapshot{Profile: cfg.Profile, Resolver: cfg.Resolver, base: base}
}

// Boot instantiates a runnable kernel from the snapshot. It is the warm
// twin of New: instead of populating the image into a fresh FS it COW-forks
// the frozen base, and the fork consumes exactly the entropy a cold
// fs.New would have, so the booted kernel is bitwise indistinguishable from
// a cold boot with the same Config and BootConfig. Safe to call from any
// number of goroutines at once.
func (s *Snapshot) Boot(b BootConfig) *Kernel {
	if b.Resolver == nil {
		b.Resolver = s.Resolver
	}
	return newKernel(s.Profile, b, func(k *Kernel, fsEntropy *prng.Host) *fs.FS {
		return s.base.Fork(k.WallClock, fsEntropy)
	})
}
