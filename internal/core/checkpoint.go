package core

import (
	"errors"
	"sort"
	"strings"
	"time"

	"repro/internal/abi"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sched"
)

// This file is the container half of crash-consistent checkpoints (ISSUE 5).
// The kernel seals machine state (kernel/checkpoint.go); the container adds
// everything the tracer layered on top — determinization maps, the scheduler
// seal, the container PRNG cursor, the metrics/ring prefix — plus the
// validation data recovery needs: a hash of the behaviour-relevant config and
// a digest of the sealed ring. A resumed run replays nothing: it restores the
// prefix and executes only the suffix, and the determinism contract
// guarantees the result is bitwise identical to the uninterrupted run.

// Checkpoint validation errors.
var (
	// ErrCheckpointMismatch: the resuming config is not behaviourally
	// identical to the sealed run's (modulo the crash-fault knob, which a
	// recovery clears on purpose).
	ErrCheckpointMismatch = errors.New("dettrace: checkpoint does not match the resuming config")
	// ErrCheckpointCorrupt: the checkpoint's ring-prefix digest does not
	// match its contents — the seal was corrupted in storage.
	ErrCheckpointCorrupt = errors.New("dettrace: checkpoint failed validation (ring digest mismatch)")
	// ErrPatchUnapplied: an incremental rebuild asked to amend a path the
	// sealed filesystem does not hold as a regular file. The planner only
	// forks seals for content patches, so this means the patch and the seal
	// disagree about the tree shape — the rebuild must go cold.
	ErrPatchUnapplied = errors.New("dettrace: incremental patch names a file absent from the seal")
)

// Checkpoint is one sealed container state: an opaque recovery token. Like
// kernel.Checkpoint it is immutable and reusable — bounded retries may
// Resume from the same seal repeatedly.
type Checkpoint struct {
	kern      *kernel.Checkpoint
	schedSeal sched.Seal

	// det is the container's determinization state, cloned whole; what it
	// holds is decided by detState's declaration, not listed here.
	det detState

	prngState  uint64
	rdtscCount int64 // surviving process's count (sole proc at quiescence)

	regSeal  *obs.Registry // additive snapshot of the run's metrics prefix
	ringSeal *obs.Recorder // flight-recorder prefix

	recoveryHash uint64 // ConfigHash minus the crash-fault knob
	ringDigest   uint64 // digest of ringSeal at seal time (corruptible)
}

// RebuildInfo derives the checkpoint's rebuild-planning record from the
// sealed filesystem itself (ISSUE 8). Progress is read off the tree the
// sealed prefix left behind, never off seal position or timing: the driver
// journals each completed phase at pkgdir/debian/.checkpoint-journal before
// re-exec'ing itself, and chunked make's object tree is its own progress
// record — build/<unit>.o exists iff that unit's compile ran in the prefix.
// Reading state this way sidesteps everything salted or scheduled (compile
// order, interleaving): only what was read and written matters, which is
// exactly the derivation the planner's validity rule needs.
func (cp *Checkpoint) RebuildInfo(pkgdir string) derive.SealInfo {
	info := derive.SealInfo{Ordinal: cp.det.checkpoints}
	sealFS := cp.kern.FSSeal()
	if sealFS == nil {
		return info
	}
	ctx := fs.LookupCtx{Root: sealFS.Root, Cwd: sealFS.Root}
	pkgdir = strings.TrimSuffix(pkgdir, "/")
	if _, err := sealFS.Resolve(ctx, pkgdir+"/debian/.checkpoint-journal", true); err == abi.OK {
		info.Configured = true
	}
	if dir, err := sealFS.Resolve(ctx, pkgdir+"/build", true); err == abi.OK && dir.IsDir() {
		sealFS.Walk(dir, func(path string, n *fs.Inode) {
			if !n.IsRegular() || !strings.HasSuffix(path, ".o") || strings.Count(path, "/") != 1 {
				return
			}
			// build/<unit>.o ↔ src/<unit>.c: invert make's object naming.
			info.Units = append(info.Units, strings.TrimSuffix(path[1:], ".o")+".c")
		})
		sort.Strings(info.Units)
	}
	return info
}

// Ordinal returns the checkpoint's 1-based sequence number within its run.
func (cp *Checkpoint) Ordinal() int { return cp.det.checkpoints }

// Actions returns the kernel action count at the seal.
func (cp *Checkpoint) Actions() int64 { return cp.kern.Actions() }

// LNow returns the logical clock at the seal — the checkpoint's position on
// the logical-time axis ttd.Session seeks over.
func (cp *Checkpoint) LNow() int64 { return cp.kern.LNow() }

// Kernel exposes the sealed kernel state for read-only inspection (the
// time-travel debugger's FS view and seal-chain stats).
func (cp *Checkpoint) Kernel() *kernel.Checkpoint { return cp.kern }

// VirtualNow returns the sealed virtual time (ns since boot). A resumed
// run's final WallTime minus this is the virtual work re-executed after
// restore — the X15 MTTR numerator, versus a cold replay's full WallTime.
func (cp *Checkpoint) VirtualNow() int64 { return cp.kern.VirtualNow() }

// Valid recomputes the ring-prefix digest and the filesystem seal chain's
// content digests and compares them to the sealed ones; false means the
// checkpoint — or, for a delta seal, any link it chains through — was
// corrupted after sealing. A corrupted link therefore invalidates every
// later seal chained onto it, and recovery steps down to the newest seal
// whose whole chain validates.
func (cp *Checkpoint) Valid() bool {
	return cp.ringSeal.Digest() == cp.ringDigest && cp.kern.FSSealChain().ChainValid()
}

// Digest returns the sealed ring-prefix digest — the checkpoint's content
// address in the farm's seal transfer format (internal/farm): a seal travels
// as (image hash, config hash, job, ordinal, digest), and a receiving node
// revalidates the body it fetches against this digest before restoring.
func (cp *Checkpoint) Digest() uint64 { return cp.ringDigest }

// recoveryHash is the config identity a checkpoint is valid against. The
// crash-fault knob is excluded: the sealed run carried FaultInjectCrash=N by
// construction (that is why it crashed) and the recovery clears it (so the
// resumed run survives); everything else must match exactly.
func recoveryHash(cfg Config) uint64 {
	cfg.FaultInjectCrash = 0
	return ConfigHash(cfg)
}

// sealCheckpoint is the kernel's Checkpointer hook: it runs at a quiescent
// traced stop, with kcp the sealed kernel state and t the surviving thread.
// The KindCheckpoint marker is recorded *before* the ring is cloned so the
// sealed prefix contains its own marker — exactly what the uninterrupted
// run's ring holds at that point.
func (c *Container) sealCheckpoint(kcp *kernel.Checkpoint, t *kernel.Thread) {
	c.checkpoints++
	c.rec.Record(c.k.LNow(), obs.KindCheckpoint, 0, 0, uint64(c.checkpoints), kcp.Actions())
	regSeal := obs.NewRegistry()
	regSeal.Absorb(c.obs)
	cp := &Checkpoint{
		kern:         kcp,
		schedSeal:    c.sched.CheckpointSeal(t),
		det:          c.detState.clone(),
		prngState:    c.prng.State(),
		rdtscCount:   c.rdtscCount[t.Proc],
		regSeal:      regSeal,
		ringSeal:     c.rec.CloneState(),
		recoveryHash: recoveryHash(c.cfg),
	}
	cp.ringDigest = cp.ringSeal.Digest() // nil-safe: a DisableObservability seal digests its empty header
	if c.cfg.FaultCorruptCheckpoint > 0 && c.checkpoints == c.cfg.FaultCorruptCheckpoint {
		// Injected checkpoint-write corruption: the stored digests no longer
		// match the contents, so Valid() — and therefore Resume — rejects
		// this seal and recovery must fall back to an older one or cold-boot.
		// Both the ring digest and the filesystem seal digest are flipped:
		// when seals are delta-chained, the fs corruption also poisons every
		// later seal that chains through this one.
		cp.ringDigest ^= 1
		kcp.CorruptFSSeal()
	}
	c.cfg.CheckpointSink(cp)
}

// Resume validates cp against cfg, reconstructs the container at the seal
// point and runs it to completion. cfg must be the sealed run's config with
// FaultInjectCrash cleared (or re-aimed past the seal); template reuse,
// checkpoint sinks and the debugger halts may differ freely. Observability
// may only be turned off: a seal taken with the recorder on resumes under
// DisableObservability (the Result then carries no ring), but a seal taken
// with it off holds no ring prefix and is rejected under a recording config
// with ErrCheckpointMismatch. The returned Result is bitwise identical —
// output, ring, rolled-up metrics — to what the uninterrupted run under cfg
// would have produced.
func Resume(cp *Checkpoint, reg *guest.Registry, cfg Config) (*Result, error) {
	return resume(cp, reg, cfg, nil)
}

// ResumePatched is Resume for incremental rebuilds (ISSUE 8): before the
// suffix runs, the dirty source files are amended — content only, shape
// untouched — into the resumed filesystem. Sound whenever the sealed prefix
// never read any patched file (what derive.PlanRebuild guarantees when it
// picks the seal): the prefix state is then identical to what a cold run of
// the patched image would have reached, and the suffix reads the patched
// bytes exactly as that cold run would. cfg must be the patched run's config
// — in particular cfg.Image the patched image — so the result carries the
// keys a cold build of the patch would carry.
func ResumePatched(cp *Checkpoint, reg *guest.Registry, cfg Config, patch map[string][]byte) (*Result, error) {
	return resume(cp, reg, cfg, patch)
}

func resume(cp *Checkpoint, reg *guest.Registry, cfg Config, patch map[string][]byte) (*Result, error) {
	normalizeConfig(&cfg)
	// recoveryHash leaves the observability knob out on purpose, so the one
	// direction that cannot work is checked here: a ringless seal would
	// resume into a ring missing its prefix.
	if recoveryHash(cfg) != cp.recoveryHash || (cp.ringSeal == nil && !cfg.DisableObservability) {
		return nil, ErrCheckpointMismatch
	}
	if !cp.Valid() {
		return nil, ErrCheckpointCorrupt
	}
	c := newContainer(cfg, filterFor(cfg))

	// Determinization state picks up mid-stream: the PRNG cursor, the
	// first-touch inode/mtime/pid maps and the draw counter all continue
	// exactly where the sealed run left them.
	c.detState = cp.det.clone()
	c.prng.SetState(cp.prngState)

	// Observability prefix: absorb the sealed metrics into the fresh
	// registry (counters are additive, so final Gather = prefix + suffix)
	// and restore the ring so it continues byte-for-byte.
	c.obs.Absorb(cp.regSeal)
	c.rec.RestoreState(cp.ringSeal)

	setupStart := time.Now()
	k, p, t := kernel.Resume(cp.kern, c.bootConfig(reg))
	setupNs := time.Since(setupStart).Nanoseconds()
	c.attach(k, "resume", setupNs, true)
	c.rdtscCount[p] = cp.rdtscCount
	c.sched.RestoreSeal(cp.schedSeal, t)

	// Amend the incremental patch into the resumed filesystem before any
	// guest instruction runs: the restored thread is parked at its sealed
	// stop until k.Run(), so the suffix cannot observe the mutation happen —
	// it simply reads the patched bytes, as a cold run of the patched image
	// would have.
	for path, data := range patch {
		if !c.k.FS.Amend(path, data) {
			// The survivor is already parked at its sealed stop: stop it
			// rather than leave its coroutine behind.
			k.Abort(ErrPatchUnapplied)
			k.Run()
			return nil, ErrPatchUnapplied
		}
	}
	res := c.finish(p, setupNs)
	res.Resumed = true
	return res, nil
}
