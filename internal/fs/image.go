package fs

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/derive"
)

// Image is a portable description of a filesystem tree — the "initial
// filesystem state" that a DetTrace computation is a pure function of
// (Fig. 1). Images are instantiated into a live FS per simulated run, which
// models how reprotest copies a pristine control-chroot before every build:
// paths, contents and permission bits carry over; inode numbers and
// timestamps are assigned by the host at copy time.
//
// An image memoizes the sorted list of its paths, which Paths, Populate,
// TreeHash and Hash all walk. Entries is a public map that callers edit
// freely, so the memo is a hint, never an authority: every use first checks
// it against the live key set (same length, every path present) and sorts
// afresh when it no longer matches. A fork's result image (SnapshotImage)
// starts with its base's memo, merged with the few paths the fork added, so
// hashing it sorts nothing.
//
// An image's file bytes are immutable once added: every filesystem populated
// from it, and every image read back off one, shares them. Edit a Clone.
// An image SnapshotImage returns may be shared by many results (a pristine
// fork's is its base's), so its Entries map is read-only too.
type Image struct {
	Entries map[string]ImageEntry

	// order is the memoized sorted key list. Published atomically because
	// images are read (and hashed) from many goroutines; the slice it points
	// at is never written after publication and may be shared with a frozen
	// filesystem and with other images.
	order atomic.Pointer[[]string]

	// leaves is a []leafMemo in order's order, published like it by the last
	// hash that missed one, for rehashes and for Populate to stamp on the
	// inodes it creates. A SnapshotImage result (snap) keeps none: its
	// entries reach their inodes' memos through src.
	leaves atomic.Value
	snap   bool

	// from is the frozen filesystem whose pristine forks share this image,
	// nil on every other image. root is the shared image's memoized Hash,
	// 0 until its first Hash or TreeHash and always 0 where from is nil.
	// Like order it is checked before each use (unchanged), but the check
	// hashes nothing.
	root atomic.Uint64
	from *FS
}

// ImageEntry is one node in an Image.
//
// An entry SnapshotImage took from a frozen inode, or from a fork's shell of
// one, carries a pointer to that frozen inode (src) so LeafHash can reuse the
// digest memoized there.
type ImageEntry struct {
	Mode   uint32 // full S_IF | perm bits
	Data   []byte // regular files; immutable once in an image
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

// AddFile records a regular file. The image keeps data itself, not a copy.
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
// An entry read off a frozen inode (see ImageEntry) takes the memo on that
// inode when the memo was computed from the same entry; an entry that is
// the inode's own replaces a memo computed from any other, or none.
func (e ImageEntry) LeafHash() uint64 {
	n := e.src
	if n == nil {
		return e.leafHash()
	}
	if m := n.leaf.Load(); m != nil && m.e.same(e) {
		return m.h
	}
	h := e.leafHash()
	if e.same(n.imageEntry()) {
		n.leaf.Store(&leafMemo{e, h})
	}
	return h
}

// leafMemo is a leaf digest and the entry it was computed from. It holds for
// any entry that is the same (see same), so it is never stale: a changed
// field or a new Data slice simply misses it.
type leafMemo struct {
	e ImageEntry
	h uint64
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

// same reports whether e and o have every field leafHash reads equal, Data
// compared by identity: the same bytes in memory, which never change.
func (e ImageEntry) same(o ImageEntry) bool {
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
	return derive.TreeHash{Root: im.hash(leaves), Leaves: leaves}
}

// Hash returns the content hash of the image — the root of TreeHash. Two
// images with Equal contents hash identically; every cache layer keys on
// this through derive.KeyFor. It folds the paths in their memoized order
// and builds no leaf map, so a repeated Hash allocates nothing.
func (im *Image) Hash() uint64 { return im.hash(nil) }

// hash folds the image in its memoized order, or sorted afresh when that
// no longer matches, recording each leaf in leaves when it is non-nil. A
// shared image memoizes the root of its entries as read off the frozen tree
// and answers a plain Hash from it while they are unchanged (a root that
// folds to 0 is simply folded again).
func (im *Image) hash(leaves map[string]uint64) uint64 {
	if h := im.root.Load(); h != 0 && leaves == nil && im.unchanged() {
		return h
	}
	h, ok := uint64(0), false
	if order := im.order.Load(); order != nil {
		h, ok = im.fold(*order, leaves)
	}
	if !ok {
		h, _ = im.fold(im.resort(), leaves)
	}
	if im.from != nil && im.unchanged() {
		im.root.Store(h)
	}
	return h
}

// fold folds (path, leaf) over order, taking each leaf from the image's
// memo when that was computed from the same entry, and publishes a new memo
// when any leaf missed. It reports false, having checked as it went, when
// order is not exactly the key set: a different length or a path no longer
// present.
func (im *Image) fold(order []string, leaves map[string]uint64) (uint64, bool) {
	if len(order) != len(im.Entries) {
		return 0, false
	}
	old, _ := im.leaves.Load().([]leafMemo)
	var memo []leafMemo
	f := derive.NewFold()
	for i, p := range order {
		e, ok := im.Entries[p]
		if !ok {
			return 0, false
		}
		m := leafMemo{e: e}
		if i < len(old) && old[i].e.same(e) {
			m.h = old[i].h
		} else {
			m.h = e.LeafHash()
			if memo == nil && !im.snap {
				memo = append(make([]leafMemo, 0, len(order)), old[:i]...) // every earlier leaf hit
			}
		}
		if memo != nil {
			memo = append(memo, m)
		}
		if leaves != nil {
			leaves[p] = m.h
		}
		f.Add(p, m.h)
	}
	if memo != nil {
		im.leaves.Store(memo)
	}
	return f.Root(), true
}

// unchanged reports whether a shared image still holds exactly the entries
// it was read with: as many as its frozen filesystem has paths, each read
// off one of that filesystem's inodes at the path the inode records, and
// each hitting that inode's leaf memo, which once the image is hashed holds
// the inode's own entry. One pass over the map, no lookups, no hashing.
func (im *Image) unchanged() bool {
	if len(im.Entries) != len(*im.from.order) {
		return false
	}
	for p, e := range im.Entries {
		n := e.src
		if n == nil || n.fs != im.from || n.path != p {
			return false
		}
		if m := n.leaf.Load(); m == nil || !m.e.same(e) {
			return false
		}
	}
	return true
}

// sorted returns the image's paths in sorted order: the memo when it still
// names exactly the key set, otherwise a fresh sort, memoized. The result is
// shared; callers only read it.
func (im *Image) sorted() []string {
	if order := im.order.Load(); order != nil && im.covers(*order) {
		return *order
	}
	return im.resort()
}

// covers reports whether order, a sorted list of distinct paths, is exactly
// the key set: the same length, and every path present.
func (im *Image) covers(order []string) bool {
	if len(order) != len(im.Entries) {
		return false
	}
	for _, p := range order {
		if _, ok := im.Entries[p]; !ok {
			return false
		}
	}
	return true
}

// resort sorts the key set and memoizes it.
func (im *Image) resort() []string {
	order := make([]string, 0, len(im.Entries))
	for p := range im.Entries {
		order = append(order, p)
	}
	sort.Strings(order)
	im.order.Store(&order)
	return order
}

// Clone returns a deep copy, so experiment images can be derived from a
// control image without aliasing (the control/experiment chroot split of
// §6.1). The copy is the caller's to edit until it is hashed or populated:
// it shares no bytes with im or any filesystem, and carries no memo.
func (im *Image) Clone() *Image {
	out := NewImage()
	for p, e := range im.Entries {
		e.Data = bytes.Clone(e.Data)
		e.src = nil
		out.Entries[p] = e
	}
	return out
}

// Paths returns every recorded path in sorted order, a copy the caller may
// keep and edit.
func (im *Image) Paths() []string {
	order := im.sorted()
	return append(make([]string, 0, len(order)), order...)
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
//
// Every inode Populate creates records its path, a substring of the image's
// own string for it, and when f was empty and Populate created every image
// path and nothing else but implicit parents, f keeps the image's sorted
// order, the implicit parents merged in, for Freeze until its path set next
// changes. A file shares the image's bytes, copy-on-write (cowData), and
// every inode takes the image's memoized leaf digest for its entry, if any.
func (f *FS) Populate(im *Image) {
	order := im.sorted()
	memo, _ := im.leaves.Load().([]leafMemo)
	exact := f.Root.entryCount() == 0
	var made []string
	for i, p := range order {
		e := im.Entries[p]
		dir := f.ensureDirs(parentOf(p), &made)
		name := baseOf(p)
		if dir == nil || name == "" {
			exact = false
			continue // below a non-directory, or the root itself
		}
		var n *Inode
		var err abi.Errno
		switch e.Mode & abi.ModeTypeMask {
		case abi.ModeDir:
			if existing := dir.lookup(name); existing != nil && existing.IsDir() {
				existing.Mode = e.Mode
				exact = false
				continue
			}
			n, err = f.Mkdir(dir, name, e.Mode, e.UID, e.GID)
		case abi.ModeSymlink:
			n, err = f.Symlink(dir, name, e.Target, e.UID, e.GID)
		case abi.ModeCharDev:
			n, err = f.Mkdev(dir, name, e.DevID, e.UID, e.GID)
		case abi.ModeFIFO:
			n, err = f.Mkfifo(dir, name, e.Mode&abi.ModePermMask, e.UID, e.GID)
		default:
			n, err = f.CreateFile(dir, name, e.Mode&abi.ModePermMask, e.UID, e.GID)
			if err == abi.OK {
				n.Data, n.cowData = e.Data, true
			}
		}
		if err != abi.OK {
			exact = false
			continue
		}
		if !n.IsSymlink() {
			n.Mode = e.Mode // recorded permissions, device and FIFO bits included
		}
		if i < len(memo) && memo[i].e.same(e) {
			n.leaf.Store(&memo[i])
		}
		n.path = p
	}
	if exact {
		if len(made) > 0 {
			slices.Sort(made)
			order = mergeOrder(order, made, false, nil)
		}
		f.popOrder = order
	}
}

// Mkdevs creates a character device under dir for each name, in order,
// with the matching devID, as Mkdev does one at a time. Unlike Mkdev it
// keeps the order Populate left for Freeze, the new paths merged in, so a
// filesystem populated and then given its pseudo devices still freezes
// without a walk. While that order holds, every inode's recorded path is
// exact, dir's included.
func (f *FS) Mkdevs(dir *Inode, names, devIDs []string) {
	order := f.popOrder
	var made []string
	for i, name := range names {
		n, err := f.Mkdev(dir, name, devIDs[i], 0, 0)
		if err == abi.OK && order != nil {
			n.path = dir.path + "/" + name
			made = append(made, n.path)
		}
	}
	if order != nil {
		slices.Sort(made)
		f.popOrder = mergeOrder(order, made, false, nil)
	}
}

// ensureDirs returns the directory at path, creating what is missing of it,
// or nil when a component is not a directory. It walks path in place, one
// component at a time, and stamps each directory it creates with its path,
// the prefix of path that names it, appending that to *made.
func (f *FS) ensureDirs(path string, made *[]string) *Inode {
	cur := f.Root
	for i := 0; ; {
		for i < len(path) && path[i] == '/' {
			i++
		}
		if i == len(path) {
			return cur
		}
		end := len(path)
		if j := strings.IndexByte(path[i:], '/'); j >= 0 {
			end = i + j
		}
		next := cur.lookup(path[i:end])
		if next == nil {
			if next, _ = f.Mkdir(cur, path[i:end], 0o755, 0, 0); next != nil {
				next.path = path[:end]
				*made = append(*made, next.path)
			}
		}
		if next == nil || !next.IsDir() {
			return nil
		}
		cur, i = next, end
	}
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
// read-only: never write its Data in place or edit its Entries — edit a
// Clone instead.
//
// The whole tree of a fork (or of a frozen filesystem) borrows its base's
// path strings too: an entry whose path exists in the base is keyed by the
// base's own string for it, compared by content, never assumed. The image's
// order memo is the base's sorted path list — shared outright when the fork
// added and removed no path, otherwise merged with the sorted handful of
// paths it added (decided by path, so a renamed base directory's subtree is
// all new) and filtered of those it removed.
//
// A fork that changed nothing an image shows (see pristine) gets its base's
// own image of the whole tree: built once, when the first such fork asks,
// and then shared by every result of every pristine fork of that base, so
// its Entries map is read-only as well. A frozen filesystem asked directly
// gets a fresh walk and keeps nothing.
func (f *FS) SnapshotImage(root *Inode) *Image {
	if root == f.Root && f.pristine() {
		return f.base.sharedImage()
	}
	return f.snapshotImage(root)
}

// snapshotImage is SnapshotImage's walk.
func (f *FS) snapshotImage(root *Inode) *Image {
	ref := f.base // the frozen tree whose paths and order the image borrows
	if f.frozen {
		ref = f
	}
	if ref != nil && (ref.order == nil || root != f.Root) {
		ref = nil
	}
	s := snapshot{f: f, im: &Image{snap: true}}
	if ref == nil {
		s.im.Entries = make(map[string]ImageEntry)
		if root.IsDir() {
			s.dir("", root, nil)
		}
		return s.im
	}
	base := *ref.order
	s.im.Entries = make(map[string]ImageEntry, len(base))
	s.borrow = true
	s.dir("", root, ref.Root)
	if len(s.added) == 0 && s.inBase == len(base) {
		s.im.order.Store(ref.order)
		return s.im
	}
	sort.Strings(s.added)
	order := mergeOrder(base, s.added, s.inBase != len(base), s.im.Entries)
	s.im.order.Store(&order)
	return s.im
}

// snapshot is one SnapshotImage walk. With borrow set it tracks, for the
// order memo, how many entries have a path the base has (inBase) and which
// paths it lacks (added).
type snapshot struct {
	f      *FS
	im     *Image
	borrow bool
	inBase int
	added  []string
}

// dir records every path below dir under prefix. base is the base's inode
// at the same path when that is a directory, nil otherwise. A directory the
// fork f never listed is read straight off its frozen base; a base inode f
// did materialize elsewhere — a hard link listed under its other name — is
// read through its shell, which holds the fork's view of it.
func (s *snapshot) dir(prefix string, dir, base *Inode) {
	ents := dir.entries
	if dir.cowDir {
		ents = dir.origin.entries
	}
	// mirror: ents is base's own entry map, so each entry is its base inode.
	mirror := base != nil && (dir == base || dir.cowDir && dir.origin == base)
	for name, n := range ents {
		var b *Inode // the base inode at this path, nil if the base has none
		switch {
		case mirror:
			b = n
		case base != nil:
			b = base.entries[name]
		}
		if sh, ok := s.f.clones[n]; ok {
			n = sh
		}
		var p string
		if b != nil && b.at(prefix, name) {
			p = b.path
		} else {
			p = prefix + "/" + name
		}
		s.im.Entries[p] = n.imageEntry()
		if s.borrow {
			if b != nil {
				s.inBase++
			} else {
				s.added = append(s.added, p)
			}
		}
		if n.IsDir() {
			if b != nil && !b.IsDir() {
				b = nil
			}
			s.dir(p, n, b)
		}
	}
}

// mergeOrder merges the sorted base paths with the sorted added ones. With
// filter set it drops each base path entries no longer holds. A path in
// both lists is kept once, so the result is duplicate-free whatever the base
// list holds: the memo's validation (length plus presence) relies on that.
func mergeOrder(base, added []string, filter bool, entries map[string]ImageEntry) []string {
	n := len(base) + len(added)
	if filter {
		n = len(entries)
	}
	out := make([]string, 0, n)
	i := 0
	for _, p := range base {
		if filter {
			if _, ok := entries[p]; !ok {
				continue
			}
		}
		for i < len(added) && added[i] < p {
			out = append(out, added[i])
			i++
		}
		if i < len(added) && added[i] == p {
			i++
		}
		out = append(out, p)
	}
	return append(out, added[i:]...)
}

// imageEntry returns the image entry of n. Bytes that can no longer change —
// a frozen inode's, or a file's still shared with its base or image — are
// lent to the entry; a live file's bytes are copied, because WriteAt edits
// them in place.
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
