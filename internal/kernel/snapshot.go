package kernel

import (
	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prng"
)

// Snapshot is the prepared, immutable half of a boot: the populated
// filesystem with its /proc pseudo-file inodes (frozen as a COW template
// base), the machine profile and the program resolver. Everything per-run —
// entropy pool, clocks, run queues, the device instances behind those
// inodes, the policy — is rebuilt by Boot, which is why one Snapshot can
// back any number of concurrent runs under any policy.
//
// The paper's §3 purity argument is what makes this sound: a container's
// behaviour is a function of its initial filesystem state, so sharing that
// state (read-only) between runs cannot couple them. Boot is the only way to
// start a fresh kernel (Resume restores one from a Checkpoint), so a
// one-off boot prepares a private snapshot: Prepare(cfg).Boot(b).
// TestSnapshotBootEqualsCold pins a boot of a shared, well-used snapshot
// bitwise-identical to a fresh one.
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

	// Rec, when non-nil, is the flight recorder event sinks write to; a nil
	// recorder records nothing (the observability ablation). It never feeds
	// back into guest-visible state.
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
// filesystem, /proc pseudo files included, is frozen: the throwaway
// construction-time inode numbers and timestamps it carries are never
// observable, because every Boot renumbers and restamps them through
// fs.Fork. The pseudo files are created after every image path, in a fixed
// order, because a guest sees the inode numbers that order hands out.
func Prepare(cfg Config) *Snapshot {
	base := fs.New(cfg.Profile, func() int64 { return 0 }, prng.NewHost(0))
	if cfg.Image != nil {
		base.Populate(cfg.Image)
	}
	populateProc(base)
	base.Freeze()
	return &Snapshot{Profile: cfg.Profile, Resolver: cfg.Resolver, base: base}
}

// Boot instantiates a runnable kernel from the snapshot: it COW-forks the
// frozen base, and the fork renumbers, restamps and draws entropy exactly as
// populating the image into a fresh filesystem would
// (fs.TestForkBitwiseEqualsCold), so a boot depends on the Config and
// BootConfig alone, never on what other boots the snapshot served.
// b.Resolver overrides the prepared one. No process exists yet — call Start.
// Safe to call from any number of goroutines at once.
//
// The host entropy draw order below is a compatibility contract: the seed
// pool is read for (1) the PID base, (2) the filesystem fork, (3) the
// hardware model, (4) the baseline policy when no policy is supplied. Every
// output of the tree was recorded under this sequence.
func (s *Snapshot) Boot(b BootConfig) *Kernel {
	if b.Resolver == nil {
		b.Resolver = s.Resolver
	}
	k := attach(s.Profile, b)
	k.Entropy = prng.NewHost(b.Seed)
	k.epoch = b.Epoch
	k.nextPID = 1000 + k.Entropy.Intn(30_000) // host PIDs start anywhere
	k.Console = &Console{}
	k.lastCheckpoint = -1
	k.syscalls = make([]int64, abi.SysnoLinux)
	cores := s.Profile.Cores
	if b.NumCPU > 0 {
		cores = b.NumCPU
	}
	k.cores = make([]int64, cores)
	k.lcores = make([]int64, cores)
	k.indexCores()
	k.FS = s.base.Fork(k.WallClock, k.Entropy.Fork())
	k.HW = cpu.NewHW(s.Profile, k.Entropy.Fork(), func() int64 { return k.now })
	if k.Policy == nil {
		k.Policy = newBaselinePolicy(k.Entropy.Fork())
	}
	return k
}
