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

	prngState uint64

	inoMap    map[uint64]uint64
	nextIno   uint64
	mtimeMap  map[uint64]int64
	nextMtime int64

	vpid     map[int]int
	rawPid   map[int]int
	nextVPID int

	rdtscCount int64 // surviving process's count (sole proc at quiescence)

	entropyDraws    int
	randomLog       []byte
	replayCursor    int
	replayExhausted bool

	regSeal  *obs.Registry // additive snapshot of the run's metrics prefix
	ringSeal *obs.Recorder // flight-recorder prefix

	ordinal      int
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
	info := derive.SealInfo{Ordinal: cp.ordinal}
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
func (cp *Checkpoint) Ordinal() int { return cp.ordinal }

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
		kern:            kcp,
		schedSeal:       c.sched.CheckpointSeal(t),
		prngState:       c.prng.State(),
		inoMap:          make(map[uint64]uint64, len(c.inoMap)),
		nextIno:         c.nextIno,
		mtimeMap:        make(map[uint64]int64, len(c.mtimeMap)),
		nextMtime:       c.nextMtime,
		vpid:            make(map[int]int, len(c.vpid)),
		rawPid:          make(map[int]int, len(c.rawPid)),
		nextVPID:        c.nextVPID,
		rdtscCount:      c.rdtscCount[t.Proc],
		entropyDraws:    c.entropyDraws,
		randomLog:       append([]byte(nil), c.randomLog...),
		replayCursor:    c.replayCursor,
		replayExhausted: c.replayExhausted,
		regSeal:         regSeal,
		ringSeal:        c.rec.CloneState(),
		ordinal:         c.checkpoints,
		recoveryHash:    recoveryHash(c.cfg),
	}
	for k, v := range c.inoMap {
		cp.inoMap[k] = v
	}
	for k, v := range c.mtimeMap {
		cp.mtimeMap[k] = v
	}
	for k, v := range c.vpid {
		cp.vpid[k] = v
	}
	for k, v := range c.rawPid {
		cp.rawPid[k] = v
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
// FaultInjectCrash cleared (or re-aimed past the seal); mechanism knobs
// (observability, template reuse, checkpoint sinks) may differ freely. The
// returned Result is bitwise identical — output, ring, rolled-up metrics —
// to what the uninterrupted run would have produced.
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
	if recoveryHash(cfg) != cp.recoveryHash {
		return nil, ErrCheckpointMismatch
	}
	if !cp.Valid() {
		return nil, ErrCheckpointCorrupt
	}
	c := newContainer(cfg, filterFor(cfg))

	// Determinization state picks up mid-stream: the PRNG cursor, the
	// first-touch inode/mtime/pid maps and the draw counter all continue
	// exactly where the sealed run left them.
	c.prng.SetState(cp.prngState)
	for k, v := range cp.inoMap {
		c.inoMap[k] = v
	}
	c.nextIno = cp.nextIno
	for k, v := range cp.mtimeMap {
		c.mtimeMap[k] = v
	}
	c.nextMtime = cp.nextMtime
	for k, v := range cp.vpid {
		c.vpid[k] = v
	}
	for k, v := range cp.rawPid {
		c.rawPid[k] = v
	}
	c.nextVPID = cp.nextVPID
	c.entropyDraws = cp.entropyDraws
	c.randomLog = append([]byte(nil), cp.randomLog...)
	c.replayCursor = cp.replayCursor
	c.replayExhausted = cp.replayExhausted
	c.checkpoints = cp.ordinal

	// Observability prefix: absorb the sealed metrics into the fresh
	// registry (counters are additive, so final Gather = prefix + suffix)
	// and restore the ring so it continues byte-for-byte.
	c.obs.Absorb(cp.regSeal)
	c.rec.RestoreState(cp.ringSeal)

	var kcheck func(*kernel.Checkpoint, *kernel.Thread)
	if cfg.CheckpointSink != nil {
		kcheck = c.sealCheckpoint
	}
	setupStart := time.Now()
	k, p, t := kernel.Resume(cp.kern, kernel.BootConfig{
		Policy:        c,
		Resolver:      reg.Resolver(),
		Deadline:      cfg.Deadline,
		Obs:           c.obs,
		Rec:           c.rec,
		CrashAtAction: cfg.FaultInjectCrash,
		Checkpointer:  kcheck,
		DeltaSeals:    !cfg.DisableDeltaSeals,
		HaltAtAction:  cfg.HaltAtAction,
		HaltAtLTime:   cfg.HaltAtLTime,
	})
	setupNs := time.Since(setupStart).Nanoseconds()
	c.k = k
	if c.rec != nil {
		// COW flags survive sealing, so a resumed fork-path run fires the
		// same break events at the same writes the original would have.
		k.FS.OnCOWBreak = func(bytes int64) {
			c.rec.Record(k.LNow(), obs.KindCOWBreak, 0, 0, uint64(bytes), 0)
		}
	}
	if cfg.Debug != nil {
		k.SetDebug(cfg.Debug)
	}
	c.registerContainerDevices(k)
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
	c.spans = append(c.spans, obs.Span{Name: "resume", RealNs: setupNs})

	runStart := time.Now()
	runErr := k.Run()
	c.spans = append(c.spans, obs.Span{
		Name: "run", RealNs: time.Since(runStart).Nanoseconds(), LEnd: k.LNow(),
	})
	flushStart := time.Now()
	res := c.assembleResult(p, runErr)
	res.SetupNs = setupNs
	res.Resumed = true
	c.spans = append(c.spans, obs.Span{
		Name: "flush", RealNs: time.Since(flushStart).Nanoseconds(),
	})
	res.Spans = c.spans
	return res, nil
}
