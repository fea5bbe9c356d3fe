package fs

import (
	"bytes"
	"sort"
	"strings"

	"repro/internal/abi"
	"repro/internal/derive"
)

// Image is a portable description of a filesystem tree — the "initial
// filesystem state" that a DetTrace computation is a pure function of
// (Fig. 1). Images are instantiated into a live FS per simulated run, which
// models how reprotest copies a pristine control-chroot before every build:
// paths, contents and permission bits carry over; inode numbers and
// timestamps are assigned by the host at copy time.
type Image struct {
	Entries map[string]ImageEntry
}

// ImageEntry is one node in an Image.
//
// An entry SnapshotImage took from a frozen inode, or from a fork's shell of
// one, carries a pointer to that frozen inode (src) so LeafHash can reuse the
// inode's memoized digest. The pointer is a hint, never an authority:
// LeafHash trusts it only while the entry still describes the inode exactly,
// so editing a copied entry's fields simply costs a full recompute.
type ImageEntry struct {
	Mode   uint32 // full S_IF | perm bits
	Data   []byte // regular files
	Target string // symlinks
	DevID  string // character devices
	UID    uint32
	GID    uint32

	src *Inode // frozen inode this entry was read from, nil if none
}

// NewImage returns an empty image.
func NewImage() *Image { return &Image{Entries: make(map[string]ImageEntry)} }

// AddDir records a directory (and implicitly its parents).
func (im *Image) AddDir(path string, perm uint32) {
	im.Entries[clean(path)] = ImageEntry{Mode: abi.ModeDir | perm}
}

// AddFile records a regular file.
func (im *Image) AddFile(path string, perm uint32, data []byte) {
	im.Entries[clean(path)] = ImageEntry{Mode: abi.ModeRegular | perm, Data: data}
}

// AddSymlink records a symbolic link.
func (im *Image) AddSymlink(path, target string) {
	im.Entries[clean(path)] = ImageEntry{Mode: abi.ModeSymlink | 0o777, Target: target}
}

// AddDev records a character device resolved by the kernel at open time.
func (im *Image) AddDev(path, devID string) {
	im.Entries[clean(path)] = ImageEntry{Mode: abi.ModeCharDev | 0o666, DevID: devID}
}

// AddFifo records a named pipe.
func (im *Image) AddFifo(path string, perm uint32) {
	im.Entries[clean(path)] = ImageEntry{Mode: abi.ModeFIFO | perm}
}

// Equal reports whether two images describe the same tree. A nil and an
// empty file body are the same file, matching what Populate instantiates.
func (im *Image) Equal(other *Image) bool {
	if len(im.Entries) != len(other.Entries) {
		return false
	}
	for p, e := range im.Entries {
		o, ok := other.Entries[p]
		if !ok {
			return false
		}
		if e.Mode != o.Mode || e.UID != o.UID || e.GID != o.GID ||
			e.Target != o.Target || e.DevID != o.DevID || !bytes.Equal(e.Data, o.Data) {
			return false
		}
	}
	return true
}

// LeafHash returns the content hash of one entry: its type and permission
// bits, ownership, file body, link target and device identity. One file's
// leaf is the per-file granule the incremental-rebuild planner diffs — a
// one-byte patch moves exactly one leaf.
//
// An entry read off a frozen inode (see ImageEntry) takes the inode's
// memoized digest, filling it on first use, when the entry still has the
// inode's exact Mode, UID, GID, Target and DevID and the very same Data
// slice (same backing array, same length). A frozen inode never changes and
// its bytes are never written in place, so such an entry hashes to the
// memo; any other entry is hashed from its fields.
func (e ImageEntry) LeafHash() uint64 {
	n := e.src
	if n == nil || !n.fs.frozen || !e.describes(n) {
		return e.leafHash()
	}
	if h := n.leaf.Load(); h != 0 {
		return h
	}
	h := e.leafHash()
	n.leaf.Store(h)
	return h
}

// leafHash is LeafHash computed from the entry's fields alone.
func (e ImageEntry) leafHash() uint64 {
	h := derive.NewHasher()
	h.Num(uint64(e.Mode))
	h.Num(uint64(e.UID))
	h.Num(uint64(e.GID))
	h.Data(e.Data)
	h.Str(e.Target)
	h.Str(e.DevID)
	return h.Sum()
}

// describes reports whether e is exactly the entry SnapshotImage records for
// n, with Data compared by identity rather than by content.
func (e ImageEntry) describes(n *Inode) bool {
	o := n.imageEntry()
	return e.Mode == o.Mode && e.UID == o.UID && e.GID == o.GID &&
		e.Target == o.Target && e.DevID == o.DevID && sameSlice(e.Data, o.Data)
}

// sameSlice reports whether a and b are the same bytes in memory: equal
// length and, when non-empty, the same first element.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TreeHash returns the Merkle-style tree hash of the image: one leaf per
// path plus the root fold over the sorted (path, leaf) pairs. The root is
// the image's content address; the leaves feed derive.PlanRebuild's tree
// diff.
func (im *Image) TreeHash() derive.TreeHash {
	leaves := make(map[string]uint64, len(im.Entries))
	for p, e := range im.Entries {
		leaves[p] = e.LeafHash()
	}
	return derive.TreeHash{Root: derive.FoldLeaves(leaves), Leaves: leaves}
}

// Hash returns the content hash of the image — the root of TreeHash. Two
// images with Equal contents hash identically; every cache layer keys on
// this through derive.KeyFor.
func (im *Image) Hash() uint64 { return im.TreeHash().Root }

// Clone returns a deep copy, so experiment images can be derived from a
// control image without aliasing (the control/experiment chroot split of
// §6.1). The copy is the caller's to edit: it shares no bytes with any
// filesystem and no entry keeps a frozen inode's memoized digest.
func (im *Image) Clone() *Image {
	out := NewImage()
	for p, e := range im.Entries {
		if e.Data != nil {
			e.Data = append([]byte(nil), e.Data...)
		}
		e.src = nil
		out.Entries[p] = e
	}
	return out
}

// Paths returns every recorded path in sorted order.
func (im *Image) Paths() []string {
	ps := make([]string, 0, len(im.Entries))
	for p := range im.Entries {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return strings.TrimSuffix(p, "/")
}

// Populate instantiates the image under the root of f. Missing parent
// directories are created with mode 0755. An entry that cannot be created is
// skipped: one whose name is taken by an entry of another type, and one below
// a non-directory (a file /a and a file /a/b/c leave /a a file). Inode
// numbers and timestamps are whatever the live filesystem hands out —
// per-boot values, not image properties.
func (f *FS) Populate(im *Image) {
	for _, p := range im.Paths() {
		e := im.Entries[p]
		dir := f.ensureDirs(parentOf(p))
		name := baseOf(p)
		if dir == nil || name == "" {
			continue // below a non-directory, or the root itself
		}
		switch e.Mode & abi.ModeTypeMask {
		case abi.ModeDir:
			if existing, ok := dir.ents()[name]; ok && existing.IsDir() {
				existing.Mode = e.Mode
				continue
			}
			n, _ := f.Mkdir(dir, name, e.Mode, e.UID, e.GID)
			if n != nil {
				n.Mode = e.Mode
			}
		case abi.ModeSymlink:
			f.Symlink(dir, name, e.Target, e.UID, e.GID)
		case abi.ModeCharDev:
			n, err := f.Mkdev(dir, name, e.DevID, e.UID, e.GID)
			if err == abi.OK {
				n.Mode = e.Mode // preserve recorded device permissions
			}
		case abi.ModeFIFO:
			n, err := f.Mkfifo(dir, name, e.Mode&abi.ModePermMask, e.UID, e.GID)
			if err == abi.OK {
				n.Mode = e.Mode
			}
		default:
			n, err := f.CreateFile(dir, name, e.Mode&abi.ModePermMask, e.UID, e.GID)
			if err == abi.OK {
				n.Data = append([]byte(nil), e.Data...)
				n.Mode = e.Mode
			}
		}
	}
}

// ensureDirs returns the directory at path, creating what is missing of it,
// or nil when a component is not a directory.
func (f *FS) ensureDirs(path string) *Inode {
	cur := f.Root
	for _, c := range splitPath(path) {
		next, ok := cur.ents()[c]
		if !ok {
			next, _ = f.Mkdir(cur, c, 0o755, 0, 0)
		}
		if next == nil || !next.IsDir() {
			return nil
		}
		cur = next
	}
	return cur
}

func parentOf(p string) string {
	i := strings.LastIndex(p, "/")
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

func baseOf(p string) string {
	i := strings.LastIndex(p, "/")
	return p[i+1:]
}

// SnapshotImage captures the subtree at root back into an Image — the
// inverse of Populate, used to compare end-of-build filesystem states.
//
// On a fork the image costs only what the guest touched. A directory the
// fork never listed is read straight off the frozen base; a file still
// sharing the base's bytes (and any frozen inode) lends its Data to the
// image instead of copying it, and its entry keeps the frozen inode's
// memoized leaf digest within reach of LeafHash. The image is therefore
// read-only: never write its Data in place — edit a Clone instead.
func (f *FS) SnapshotImage(root *Inode) *Image {
	hint := 0
	if f.base != nil && root == f.Root {
		hint = f.base.paths // a fork's result is mostly its base's paths
	}
	im := &Image{Entries: make(map[string]ImageEntry, hint)}
	if root.IsDir() {
		snapshotDir(im, "", f, root)
	}
	return im
}

// snapshotDir records every path below dir under prefix. A directory the
// fork f never listed is read straight off its frozen base; a base inode f
// did materialize elsewhere — a hard link listed under its other name — is
// read through its shell, which holds the fork's view of it.
func snapshotDir(im *Image, prefix string, f *FS, dir *Inode) {
	ents := dir.entries
	if dir.cowDir {
		ents = dir.origin.entries
	}
	for name, n := range ents {
		if s, ok := f.clones[n]; ok {
			n = s
		}
		p := prefix + "/" + name
		im.Entries[p] = n.imageEntry()
		if n.IsDir() {
			snapshotDir(im, p, f, n)
		}
	}
}

// imageEntry returns the image entry of n. Bytes that can no longer change —
// a frozen inode's, or a shell's still shared with its base — are lent to the
// entry; a live file's bytes are copied, because WriteAt edits them in place.
func (n *Inode) imageEntry() ImageEntry {
	e := ImageEntry{Mode: n.Mode, UID: n.UID, GID: n.GID, src: n.origin}
	if n.fs.frozen {
		e.src = n
	}
	switch {
	case n.IsRegular():
		if n.cowData || n.fs.frozen {
			e.Data = n.Data
		} else {
			e.Data = append([]byte(nil), n.Data...)
		}
	case n.IsSymlink():
		e.Target = n.Target
	case n.IsDevice():
		e.DevID = n.DevID
	}
	return e
}
