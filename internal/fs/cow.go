package fs

import "repro/internal/prng"

// This file implements the copy-on-write template layer (ISSUE 3): a
// populated FS can be Freeze()d into an immutable base, and any number of
// runs can then Fork() it instead of repeating Populate. The paper's §3
// argument — a container's behaviour is a pure function of its initial
// filesystem state — is what makes the base a cacheable value; the fork
// discipline below is what makes the cache invisible.
//
// Bitwise-equivalence contract. A fork must be indistinguishable, to the
// guest, from a cold boot that ran Populate with the same image, clock and
// entropy:
//
//   - inode numbers: a cold Populate allocates sequentially (stride 1, no
//     recycling) from the boot base 2 + entropy.Uint64()%1_000_000*16. The
//     fork draws its own base with the identical single entropy read and
//     renumbers every shell as forkBase + (baseIno - baseInoBase), so the
//     guest sees exactly the numbers a cold boot would have produced.
//   - timestamps: a cold Populate stamps every inode with clock() at
//     construction, and the simulated clock does not advance during
//     construction — so every initial timestamp equals the boot-time stamp.
//     The fork records that stamp once (bootStamp) and applies it to every
//     shell it materializes, whenever materialization happens.
//   - readdir order: the directory-hash salt is derived from the machine
//     profile name, not from boot entropy, so it is copied verbatim.
//
// Shells. Fork never hands out base inode pointers: a fork reaches its
// inodes through lookup() and ents(), which materialize per-fork "shell"
// inodes lazily. A shell copies the metadata, shares file Data read-only
// (cowData, broken by WriteAt/Truncate), and defers its directory entries
// behind cowDir until first listing or mutation. A path lookup through a
// deferred directory shells only the child it names, so resolving /bin/ls
// costs three shells however many siblings /bin and / hold. The clones map
// memoizes base→shell so hard links keep aliasing inside the fork,
// whichever name reached them first, and so that concurrent forks of one
// frozen base never write to shared memory: the base is only ever read.

// Freeze marks the filesystem as an immutable template base. After Freeze
// any mutation panics; the only permitted operations are Fork and reads.
//
// Freeze keeps the base's sorted path list, which every fork's result image
// starts from (SnapshotImage). When Populate created exactly its image's
// paths and nothing changed since, that is the image's own memoized order
// and costs nothing; otherwise a sorted walk builds it, recording each
// unstamped inode's path as it goes (a hard link keeps its first name).
func (f *FS) Freeze() {
	if f.base != nil {
		panic("fs: cannot freeze a fork")
	}
	order := f.popOrder
	if order == nil {
		order = []string{}
		walkSorted(f.Root, "", func(p string, n *Inode) {
			order = append(order, p)
			if n.path == "" {
				n.path = p
			}
		})
	}
	f.order, f.popOrder = &order, nil
	f.frozen = true
}

// Fork returns a mutable copy-on-write overlay of a frozen base. The clock
// and entropy pool play exactly the roles they play in New: entropy is read
// once for the inode numbering base, clock supplies the boot timestamp that
// a cold Populate would have stamped on every inode. Any number of forks of
// one base may be taken concurrently.
func (f *FS) Fork(clock Clock, entropy *prng.Host) *FS {
	if !f.frozen {
		panic("fs: Fork of a non-frozen filesystem")
	}
	nf := &FS{
		profile:   f.profile,
		clock:     clock,
		entropy:   entropy,
		dev:       f.dev,
		inoBase:   2 + entropy.Uint64()%1_000_000*16, // same draw as New
		inoStride: f.inoStride,
		hashSeed:  f.hashSeed,
		base:      f,
		clones:    make(map[*Inode]*Inode),
		bootStamp: clock(),
		sealEpoch: 1,
	}
	nf.nextIno = nf.inoBase + (f.nextIno - f.inoBase)
	for _, ino := range f.freeInos {
		nf.freeInos = append(nf.freeInos, nf.inoBase+(ino-f.inoBase))
	}
	nf.Root = nf.shell(f.Root)
	nf.Root.parent = nf.Root
	return nf
}

// shell returns the fork's materialized copy of base inode b, creating and
// memoizing it on first use. Memoization keeps hard links aliased: two
// directory entries that shared one base inode share one shell.
func (f *FS) shell(b *Inode) *Inode {
	if s, ok := f.clones[b]; ok {
		return s
	}
	s := &Inode{
		Ino:    f.inoBase + (b.Ino - f.base.inoBase),
		Mode:   b.Mode,
		UID:    b.UID,
		GID:    b.GID,
		Nlink:  b.Nlink,
		Atime:  f.bootStamp,
		Mtime:  f.bootStamp,
		Ctime:  f.bootStamp,
		Target: b.Target,
		DevID:  b.DevID,
		origin: b,
		fs:     f,
	}
	switch {
	case b.IsDir():
		s.cowDir = true // entries materialize from origin on first ents()
	case b.IsRegular():
		s.Data = b.Data // shared read-only until breakCOWData
		s.cowData = true
	case b.IsFIFO():
		// Pipes hold runtime state (buffered bytes, reader/writer counts),
		// none of which survives into an image; a fresh empty pipe is what a
		// cold Populate would have built.
		s.Pipe = NewPipe(DefaultPipeCapacity)
	}
	f.clones[b] = s
	return s
}

// ents returns the directory's entry map, materializing it from the frozen
// base on first access (replacing the partial map lookup keeps). Every lister
// and writer of .entries in this package goes through here so a fork never
// exposes base inode pointers.
func (n *Inode) ents() map[string]*Inode {
	if n.cowDir {
		base := n.origin
		n.entries = make(map[string]*Inode, len(base.entries))
		for name, child := range base.entries {
			n.entries[name] = n.adopt(child)
		}
		n.cowDir = false
	}
	return n.entries
}

// lookup returns the entry name of directory n, nil if there is none. On a
// deferred fork directory it materializes only the named child's shell —
// the same shell a later ents() hands out — and leaves the rest deferred.
// Until then n.entries holds just the names looked up so far, a missing
// name as nil, so a repeated lookup, found or not, is one map access.
func (n *Inode) lookup(name string) *Inode {
	if c, ok := n.entries[name]; ok || !n.cowDir {
		return c
	}
	var c *Inode
	if b, ok := n.origin.entries[name]; ok {
		c = n.adopt(b)
	}
	if n.entries == nil {
		n.entries = make(map[string]*Inode)
	}
	n.entries[name] = c
	return c
}

// adopt returns the fork's shell of base child b of directory n, setting
// the shell's parent to n if it has none yet.
func (n *Inode) adopt(b *Inode) *Inode {
	cs := n.fs.shell(b)
	if cs.parent == nil {
		cs.parent = n
	}
	return cs
}

// entryCount returns the number of entries without forcing materialization,
// so stat on an untouched forked directory stays allocation-free.
func (n *Inode) entryCount() int {
	if n.cowDir {
		return len(n.origin.entries)
	}
	return len(n.entries)
}

// breakCOWData unshares file contents from the frozen base, or the image,
// before the first in-place write or truncation. Without the copy, WriteAt's
// copy() and Truncate's reslice would reach through the shared slice into it.
// It marks the filesystem touched: its bodies may no longer be the base's.
func (n *Inode) breakCOWData() {
	if n.cowData {
		n.Data = append([]byte(nil), n.Data...)
		n.cowData = false
		if n.fs != nil {
			n.fs.touched = true
			if n.fs.OnCOWBreak != nil {
				n.fs.OnCOWBreak(int64(len(n.Data)))
			}
		}
	}
}

// mustMutable panics on any structural mutation of a frozen template base.
// Every change to the path set passes through here, so it also drops the
// order Populate left for Freeze, the paths no longer matching it, and marks
// the filesystem touched.
func (f *FS) mustMutable() {
	if f.frozen {
		panic("fs: mutation of a frozen template base")
	}
	f.popOrder = nil
	f.touched = true
}

// pristine reports whether f is a fork whose image-visible state — path
// set, Mode, UID, GID, Data, Target, DevID — is still its base's. A touched
// fork fails at once; otherwise only the shells can differ, and only in the
// metadata the kernel writes in place.
func (f *FS) pristine() bool {
	if f.base == nil || f.touched {
		return false
	}
	for b, s := range f.clones {
		if s.Mode != b.Mode || s.UID != b.UID || s.GID != b.GID ||
			s.Target != b.Target || s.DevID != b.DevID || !sameSlice(s.Data, b.Data) {
			return false
		}
	}
	return true
}

// sharedImage returns the frozen base's image of its whole tree, the one
// every pristine fork's SnapshotImage returns. The first fork to ask builds
// it; concurrent first askers race to publish and all return the winner.
// It memoizes its root on its first hash.
func (f *FS) sharedImage() *Image {
	if im := f.image.Load(); im != nil {
		return im
	}
	im := f.snapshotImage(f.Root)
	im.from = f
	f.image.CompareAndSwap(nil, im)
	return f.image.Load()
}
