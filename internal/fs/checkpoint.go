package fs

import "repro/internal/prng"

// This file implements mid-run filesystem sealing for crash-consistent
// checkpoints (ISSUE 5). Freeze/Fork (cow.go) solve the *boot-time* problem:
// every inode of a template carries the same boot stamp, so a fork can
// materialize shells lazily and stamp them all with bootStamp. A checkpoint
// has the opposite shape — the tree has been mutated mid-run, inode times,
// recycled numbers and COW flags all differ per inode — so a seal must be an
// eager deep *identity* clone: every observable field copied verbatim, no
// entropy draw, no restamping.
//
// Identity contract. For a resumed run to stay bitwise-equivalent to an
// uninterrupted one, the clone preserves, per inode: Ino, Mode, UID, GID,
// Nlink, Atime/Mtime/Ctime, Target, DevID, pipe contents, hard-link aliasing
// (memoized like Fork's clones map), and — critically — the cowData flag.
// Data still shared read-only with a frozen template base is aliased, not
// copied (the base is immutable), and stays marked cowData so the resumed
// run fires the same OnCOWBreak events at the same writes as the original
// would have. Allocator state (inoBase, nextIno, freeInos LIFO order,
// hashSeed, dev, stride) is copied verbatim so post-resume creations receive
// exactly the inode numbers the uninterrupted run hands out.
//
// Sealing a live fork walks it through ents(), which materializes deferred
// directory maps in the *source*. That mutation is behaviourally invisible
// (materialization is lazy only as an allocation optimization), so sealing a
// running filesystem does not perturb the run being sealed.

// The public sealing API lives in delta.go: SealCheckpoint produces a *Seal
// (full or delta-chained), Seal.Resume rebuilds a live filesystem from one.
// Both are built on the one identity cloner, sealClone (delta.go); this file
// keeps its entry point and the allocator-state copy.

// cloneFSHeader copies the allocator and identity state of f into a fresh
// FS bound to the given clock and entropy pool (both nil for an immutable
// seal). No entropy is drawn: the inode numbering base was fixed at the
// original boot and carries over verbatim.
func (f *FS) cloneFSHeader(clock Clock, entropy *prng.Host) *FS {
	return &FS{
		profile:   f.profile,
		clock:     clock,
		entropy:   entropy,
		dev:       f.dev,
		inoBase:   f.inoBase,
		nextIno:   f.nextIno,
		inoStride: f.inoStride,
		freeInos:  append([]uint64(nil), f.freeInos...),
		hashSeed:  f.hashSeed,
		bootStamp: f.bootStamp,
		sealEpoch: 1,
	}
}

// deepClone copies the tree into a fresh FS, preserving identity fields, and
// records the source→clone mapping in memo. It is sealClone from the root:
// prevMemo nil copies everything eagerly (a full seal, a restore, a
// reconstituted chain); a previous seal's memo shares what is clean against
// it (a delta seal). st receives the clone's cost accounting.
func (f *FS) deepClone(clock Clock, entropy *prng.Host, memo, prevMemo map[*Inode]*Inode, st *SealStats) *FS {
	nf := f.cloneFSHeader(clock, entropy)
	nf.Root = sealClone(f.Root, nf, memo, prevMemo, f.sealEpoch, st)
	if nf.Root.parent == nil { // a root shared with the previous seal keeps its own
		nf.Root.parent = nf.Root
	}
	return nf
}

// cloneState deep-copies a pipe's runtime state (buffered bytes, end
// counts), unlike the fresh empty pipe a boot-time Fork shell gets.
func (p *Pipe) cloneState() *Pipe {
	if p == nil {
		return nil
	}
	return &Pipe{
		buf:      append([]byte(nil), p.buf...),
		capacity: p.capacity,
		readers:  p.readers,
		writers:  p.writers,
	}
}
