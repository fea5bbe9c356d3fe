package fs

import (
	"sort"

	"repro/internal/derive"
	"repro/internal/prng"
)

// This file implements delta checkpoint seals (ISSUE 9). A full seal
// deep-copies the whole tree, which makes dense per-unit
// checkpointing cost O(filesystem) per seal. A delta seal instead shares
// every subtree that is provably unchanged since the previous seal and
// freshly clones only what was dirtied — the same structural-sharing idea as
// the COW fork machinery, applied between consecutive seals of one run.
//
// Sharing soundness. A live inode n may share the previous seal's clone pc
// iff a fresh identity clone of n would be byte-identical to pc:
//
//   - regular files: identical metadata, identical cowData flag, and Data
//     unchanged since the previous seal. Data dirtiness is tracked by
//     Inode.dataEpoch (stamped by WriteAt/Truncate/Amend against the owning
//     filesystem's sealEpoch), because WriteAt mutates the slice in place —
//     slice identity proves nothing. A file whose metadata changed but whose
//     data is clean gets a fresh inode that aliases pc's immutable Data copy
//     instead of re-copying it.
//   - directories: identical metadata, the same entry-name set, and every
//     child resolving to exactly the clone pc holds for that name. The
//     child-pointer comparison is what catches BindMount (which touches no
//     timestamps) and Rename entry moves.
//   - FIFOs: identical metadata and identical pipe runtime state.
//   - symlinks/devices: identical metadata, Target and DevID.
//
// Shared inodes keep their parent pointers into the older seal's tree. That
// is harmless: Walk never consults parent, path resolution inside a frozen
// seal starts at the chain head's root, and Resume re-clones everything with
// fresh parents.
//
// Chain integrity. Every seal stores a content digest; a delta seal's digest
// folds its base's digest first, so Valid()/ChainValid() detect a corrupted
// link anywhere in the chain, and recovery steps down to the nearest prefix
// whose links all validate. Reconstitute folds a delta chain back into one
// standalone full seal — the validator that pins delta restores bitwise-equal
// to full-seal restores.

// Seal is one immutable checkpoint of a filesystem: a frozen tree plus the
// delta-chain link to the seal it shares structure with (nil for a full
// seal).
type Seal struct {
	tree   *FS
	base   *Seal
	stats  SealStats
	digest uint64
}

// SealStats describes the cost of one seal.
type SealStats struct {
	Delta      bool  // sealed as a delta against a previous seal
	Nodes      int   // unique inodes reachable from the seal's root
	Fresh      int   // inodes newly cloned for this seal
	Shared     int   // inodes shared with the previous seal's tree
	FreshBytes int64 // file bytes copied for this seal (the marginal cost)
	TotalBytes int64 // file bytes reachable from the root (the full-seal cost)
}

// sealDigestSeed starts every seal digest so an empty tree still hashes to a
// recognizable non-zero value.
const sealDigestSeed uint64 = 0x9e3779b97f4a7c15

// sealSharedMark distinguishes a "shared with base" fold from a fresh one.
const sealSharedMark uint64 = 0x51ab51ab

// SealCheckpoint seals the current filesystem state. With delta set and a
// previous seal on record, the new seal shares every clean subtree with it;
// otherwise (first seal of the run, or the DisableDeltaSeals ablation) the
// seal is a standalone deep copy. Either way the live filesystem rolls into
// a new seal epoch afterwards.
func (f *FS) SealCheckpoint(delta bool) *Seal {
	s := &Seal{}
	memo := make(map[*Inode]*Inode)
	var prevMemo map[*Inode]*Inode
	if delta && f.lastSeal != nil && f.lastSealMemo != nil {
		s.base, prevMemo = f.lastSeal, f.lastSealMemo
		s.stats.Delta = true
	}
	s.tree = f.deepClone(nil, nil, memo, prevMemo, &s.stats)
	s.tree.frozen = true
	s.fillTotals()
	s.digest = s.computeDigest()
	f.lastSeal = s
	f.lastSealMemo = memo
	f.sealEpoch++
	return s
}

// Tree returns the sealed filesystem tree (read-only).
func (s *Seal) Tree() *FS { return s.tree }

// Base returns the seal this delta chains to, nil for a full seal.
func (s *Seal) Base() *Seal { return s.base }

// Stats returns the seal's cost accounting.
func (s *Seal) Stats() SealStats { return s.stats }

// Digest returns the seal's content digest (chained through base digests).
func (s *Seal) Digest() uint64 { return s.digest }

// Corrupt flips a bit in the stored digest — the deterministic storage-fault
// hook behind FaultCorruptCheckpoint.
func (s *Seal) Corrupt() { s.digest ^= 1 }

// Valid recomputes the content digest and compares it to the stored one.
func (s *Seal) Valid() bool { return s.computeDigest() == s.digest }

// ChainValid reports whether this seal and every seal it chains to validate.
func (s *Seal) ChainValid() bool {
	for cur := s; cur != nil; cur = cur.base {
		if !cur.Valid() {
			return false
		}
	}
	return true
}

// Resume builds a fresh mutable filesystem from the seal, bound to the
// resumed kernel's clock and entropy pool. The seal is left untouched, so
// one checkpoint can serve bounded retries. The resumed filesystem records
// this seal as its previous one, so its own later delta seals chain here —
// exactly as the uninterrupted run's would.
func (s *Seal) Resume(clock Clock, entropy *prng.Host) *FS {
	memo := make(map[*Inode]*Inode)
	nf := s.tree.deepClone(clock, entropy, memo, nil, &SealStats{})
	nf.lastSeal = s
	nf.lastSealMemo = make(map[*Inode]*Inode, len(memo))
	for src, clone := range memo {
		nf.lastSealMemo[clone] = src
	}
	return nf
}

// Reconstitute folds the delta chain into one standalone full seal: a deep
// copy of everything reachable from this seal's root, with no base link.
// Restoring the reconstituted seal must be bitwise-identical to restoring
// the chained one — the delta-chain correctness oracle.
func (s *Seal) Reconstitute() *Seal {
	full := &Seal{}
	full.tree = s.tree.deepClone(nil, nil, make(map[*Inode]*Inode), nil, &full.stats)
	full.tree.frozen = true
	full.fillTotals()
	full.stats.FreshBytes = full.stats.TotalBytes
	full.digest = full.computeDigest()
	return full
}

// sealClone clones inode n into the seal tree nf, sharing against prevMemo
// (the previous seal's live→clone mapping; nil forces a full clone). epoch
// is the sealing filesystem's current sealEpoch: data stamped below it is
// clean. Children are cloned before their directory so the directory share
// check can compare resolved child pointers. Directories have no cycles and
// hard links never link directories, so post-order recursion terminates.
func sealClone(n *Inode, nf *FS, memo, prevMemo map[*Inode]*Inode, epoch uint64, st *SealStats) *Inode {
	if c, ok := memo[n]; ok {
		return c
	}
	var pc *Inode
	if prevMemo != nil {
		pc = prevMemo[n]
	}

	if n.IsDir() {
		ents := n.ents() // materialize any deferred fork map; invisible to the source
		kids := make(map[string]*Inode, len(ents))
		for name, child := range ents {
			kids[name] = sealClone(child, nf, memo, prevMemo, epoch, st)
		}
		if pc != nil && metaEqual(n, pc) && len(pc.entries) == len(kids) {
			same := true
			for name, kc := range kids {
				if pc.entries[name] != kc {
					same = false
					break
				}
			}
			if same {
				st.Shared++
				memo[n] = pc
				return pc
			}
		}
		c := freshMetaClone(n, nf)
		c.entries = kids
		for _, kc := range kids {
			if kc.parent == nil {
				kc.parent = c
			}
		}
		st.Fresh++
		memo[n] = c
		return c
	}

	if n.IsRegular() {
		dataClean := n.dataEpoch < epoch
		if pc != nil && pc.IsRegular() && metaEqual(n, pc) && n.cowData == pc.cowData && dataClean {
			st.Shared++
			memo[n] = pc
			return pc
		}
		c := freshMetaClone(n, nf)
		switch {
		case n.cowData:
			// Shared read-only with an immutable frozen base: alias it and
			// keep the flag, so the resumed run breaks COW (and records the
			// break) at exactly the writes the uninterrupted run would.
			c.Data = n.Data
			c.cowData = true
		case dataClean && pc != nil && pc.IsRegular() && !pc.cowData:
			// Metadata changed, contents did not: alias the previous seal's
			// immutable copy instead of re-copying the bytes.
			c.Data = pc.Data
		default:
			c.Data = append([]byte(nil), n.Data...)
			st.FreshBytes += int64(len(c.Data))
		}
		st.Fresh++
		memo[n] = c
		return c
	}

	if n.IsFIFO() {
		if pc != nil && pc.IsFIFO() && metaEqual(n, pc) && pipeStateEqual(n.Pipe, pc.Pipe) {
			st.Shared++
			memo[n] = pc
			return pc
		}
		c := freshMetaClone(n, nf)
		c.Pipe = n.Pipe.cloneState()
		if c.Pipe != nil {
			st.FreshBytes += int64(len(c.Pipe.buf))
		}
		st.Fresh++
		memo[n] = c
		return c
	}

	// Symlinks and character devices: metadata plus Target/DevID, both
	// copied by freshMetaClone.
	if pc != nil && metaEqual(n, pc) && n.Target == pc.Target && n.DevID == pc.DevID {
		st.Shared++
		memo[n] = pc
		return pc
	}
	c := freshMetaClone(n, nf)
	st.Fresh++
	memo[n] = c
	return c
}

// freshMetaClone copies the identity metadata of n into a new inode owned by
// the seal tree.
func freshMetaClone(n *Inode, nf *FS) *Inode {
	return &Inode{
		Ino: n.Ino, Mode: n.Mode, UID: n.UID, GID: n.GID, Nlink: n.Nlink,
		Atime: n.Atime, Mtime: n.Mtime, Ctime: n.Ctime,
		Target: n.Target, DevID: n.DevID,
		fs: nf,
	}
}

// metaEqual compares the identity metadata the seal must preserve verbatim.
func metaEqual(a, b *Inode) bool {
	return a.Ino == b.Ino && a.Mode == b.Mode && a.UID == b.UID && a.GID == b.GID &&
		a.Nlink == b.Nlink && a.Atime == b.Atime && a.Mtime == b.Mtime && a.Ctime == b.Ctime
}

// pipeStateEqual compares the runtime state a FIFO seal must preserve.
func pipeStateEqual(a, b *Pipe) bool {
	if a == nil || b == nil {
		return a == b
	}
	return string(a.buf) == string(b.buf) && a.capacity == b.capacity &&
		a.readers == b.readers && a.writers == b.writers
}

// fillTotals walks the seal tree counting unique inodes and reachable file
// bytes (regular Data plus pipe buffers).
func (s *Seal) fillTotals() {
	seen := make(map[*Inode]bool)
	var rec func(n *Inode)
	rec = func(n *Inode) {
		if seen[n] {
			return
		}
		seen[n] = true
		s.stats.Nodes++
		switch {
		case n.IsRegular():
			s.stats.TotalBytes += int64(len(n.Data))
		case n.IsFIFO():
			if n.Pipe != nil {
				s.stats.TotalBytes += int64(len(n.Pipe.buf))
			}
		case n.IsDir():
			for _, child := range n.entries {
				rec(child)
			}
		}
	}
	rec(s.tree.Root)
}

// computeDigest folds the seal's content into one value. Fresh nodes fold
// their full observable state; nodes shared with the base seal fold only an
// identity marker — their content is covered by the base's digest, which is
// folded in first. Allocator state is included because a resumed run's inode
// numbering depends on it.
func (s *Seal) computeDigest() uint64 {
	h := derive.DigestU64(0, sealDigestSeed)
	if s.base != nil {
		h = derive.DigestU64(h, s.base.digest)
	}
	h = derive.DigestU64(h, s.tree.dev, s.tree.inoBase, s.tree.nextIno,
		s.tree.inoStride, uint64(len(s.tree.freeInos)))
	for _, ino := range s.tree.freeInos {
		h = derive.DigestU64(h, ino)
	}
	return s.foldNode(h, "/", s.tree.Root)
}

func (s *Seal) foldNode(h uint64, name string, n *Inode) uint64 {
	h = derive.DigestU64(h, derive.DigestBytes([]byte(name)))
	if n.fs != s.tree {
		// Shared with an ancestor seal: content covered by the base digest.
		return derive.DigestU64(h, n.Ino, sealSharedMark)
	}
	h = derive.DigestU64(h, n.Ino, uint64(n.Mode), uint64(n.UID), uint64(n.GID), uint64(n.Nlink))
	h = derive.DigestU64(h, uint64(n.Atime), uint64(n.Mtime), uint64(n.Ctime))
	h = derive.DigestU64(h, derive.DigestBytes([]byte(n.Target)), derive.DigestBytes([]byte(n.DevID)))
	switch {
	case n.IsRegular():
		flag := uint64(0)
		if n.cowData {
			flag = 1
		}
		h = derive.DigestU64(h, flag, derive.DigestBytes(n.Data))
	case n.IsFIFO():
		if n.Pipe != nil {
			h = derive.DigestU64(h, derive.DigestBytes(n.Pipe.buf),
				uint64(n.Pipe.capacity), uint64(n.Pipe.readers), uint64(n.Pipe.writers))
		}
	case n.IsDir():
		names := make([]string, 0, len(n.entries))
		for name := range n.entries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h = s.foldNode(h, name, n.entries[name])
		}
	}
	return h
}
