// Package fs implements the in-memory filesystem of the simulated kernel.
//
// It deliberately reproduces every filesystem behaviour the paper identifies
// as a source of irreproducibility (§5.5, §7.3):
//
//   - inode numbers are allocated from a boot-time random base and recycled
//     through a free list, so they differ across runs and a recycled inode
//     can be handed to a brand-new file;
//   - timestamps come from the host wall clock;
//   - directory entries iterate in a hash order salted per boot, so
//     getdents order varies run to run and machine to machine;
//   - directories report an st_size computed by the host machine's
//     filesystem formula, which differs across machines with identical
//     contents.
//
// DetTrace's job (internal/core) is to mask all of it.
package fs

import (
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/derive"
	"repro/internal/machine"
	"repro/internal/prng"
)

// Clock supplies the current wall-clock time in nanoseconds since the epoch.
type Clock func() int64

// Device is the backend of a character-device inode such as /dev/urandom.
type Device interface {
	// ReadDev fills p and returns the byte count.
	ReadDev(p []byte) int
	// WriteDev consumes p and returns the byte count.
	WriteDev(p []byte) int
}

// FS is one mounted filesystem instance: a single tree rooted at Root.
//
// An FS is either live (mutable, the normal case), frozen (an immutable
// template base, see Freeze), or a fork of a frozen base (see Fork): a
// copy-on-write overlay whose inodes are materialized lazily from the base
// and cloned on first mutation.
type FS struct {
	Root    *Inode
	profile *machine.Profile
	clock   Clock
	entropy *prng.Host

	dev       uint64
	inoBase   uint64 // first inode number of this boot
	nextIno   uint64
	inoStride uint64
	freeInos  []uint64 // recycled inode numbers, reused LIFO
	hashSeed  uint64   // salts directory iteration order

	// COW state. frozen marks an immutable template base; base and clones
	// are set on forks: base is the frozen FS this overlay was forked from
	// and clones maps base inodes to their materialized per-fork shells.
	frozen    bool
	base      *FS
	clones    map[*Inode]*Inode
	bootStamp int64 // fork boot time: the timestamp cold Populate would use

	// Result sharing (SnapshotImage). touched marks a filesystem whose path
	// set or file bodies changed (mustMutable, breakCOWData); a fork
	// without it is pristine once its shells' metadata, which chmod and
	// chown write in place, still equals its base's. image is a frozen
	// base's image of its whole tree, built when a pristine fork first asks
	// for it and returned to every later one.
	touched bool
	image   atomic.Pointer[Image]

	// Path order. order is a frozen base's sorted path list (Freeze), the
	// list every fork's result image starts from; popOrder is a live
	// filesystem's image order while Populate's paths are exactly its own
	// (cleared by the next path-set change, see mustMutable).
	order    *[]string
	popOrder []string

	// wsOut counts forked thread workspaces (workspace.go) not yet merged
	// or discarded. Checkpoint seals require quiescence, so it must be zero
	// whenever a seal is taken.
	wsOut int

	// Delta-seal state (delta.go). sealEpoch numbers the inter-seal window
	// the filesystem is currently in (1 before the first seal); WriteAt,
	// Truncate and Amend stamp it into Inode.dataEpoch so SealCheckpoint can
	// tell dirty file contents from clean ones. lastSeal/lastSealMemo
	// remember the previous seal and its live→clone mapping, the sharing
	// substrate for delta seals.
	sealEpoch    uint64
	lastSeal     *Seal
	lastSealMemo map[*Inode]*Inode

	// OnCOWBreak, when non-nil, observes each copy-on-write data unshare
	// (the copied byte count). Observation only: the callback must not
	// touch the filesystem.
	OnCOWBreak func(bytes int64)
}

// New creates an empty filesystem for one simulated boot of the given
// machine. The entropy pool determines the inode numbering base and the
// directory hash salt for this boot.
func New(p *machine.Profile, clock Clock, entropy *prng.Host) *FS {
	f := &FS{
		profile:   p,
		clock:     clock,
		entropy:   entropy,
		dev:       0x801,
		inoBase:   2 + entropy.Uint64()%1_000_000*16, // boot-dependent base
		inoStride: 1,
		// Directory iteration order is an htree hash salted at mkfs time:
		// stable for one machine's filesystem across runs, different across
		// machines. That is why readdir order is a portability leak rather
		// than a run-to-run one (§7.3).
		hashSeed:  nameSeed(p.Name),
		sealEpoch: 1,
	}
	f.nextIno = f.inoBase
	f.Root = f.newInode(abi.ModeDir | 0o755)
	f.Root.parent = f.Root
	return f
}

// Inode is a single filesystem object. Exactly one of the type-specific
// fields is populated, according to the S_IF bits in Mode.
type Inode struct {
	Ino   uint64
	Mode  uint32
	UID   uint32
	GID   uint32
	Nlink uint32

	Atime int64 // nanoseconds since epoch
	Mtime int64
	Ctime int64

	Data    []byte            // regular files
	entries map[string]*Inode // directories
	parent  *Inode            // directories: ".."
	Target  string            // symlinks
	Pipe    *Pipe             // FIFOs
	DevID   string            // character devices, resolved by the kernel

	// path is the path this inode was created at by Populate, or first
	// found at by Freeze: a string an image already holds, which
	// SnapshotImage reuses as a key when the inode still sits there. A hint
	// only — a rename or a hard link makes it stale, so every use compares
	// it by content first (see at).
	path string

	// COW state. origin is the frozen base inode a fork's shell was
	// materialized from (seal clones carry it over), so an image entry taken
	// from the shell can reach the base inode's memoized leaf digest. cowDir
	// marks a directory shell whose entries are not yet materialized from
	// origin (entries then holds only the names lookup has seen, nil for a
	// missing one); cowData marks file Data still shared read-only with the
	// base, or with the image Populate read it from.
	origin  *Inode
	cowDir  bool
	cowData bool

	// leaf memoizes the LeafHash of this inode's image entry, with the entry
	// it was computed from: stamped by Populate from its image's memo, or
	// filled by LeafHash (see ImageEntry.LeafHash). Atomic because concurrent
	// forks hash one base at once.
	leaf atomic.Pointer[leafMemo]

	// dataEpoch is the owning filesystem's sealEpoch at the last Data
	// mutation (WriteAt/Truncate/Amend). Data is unchanged since the last
	// checkpoint seal iff dataEpoch < fs.sealEpoch — the only sound dirtiness
	// signal, because WriteAt mutates Data in place without changing slice
	// identity. Metadata dirtiness needs no epoch: delta sealing compares the
	// fields directly.
	dataEpoch uint64

	fs *FS
}

func (f *FS) newInode(mode uint32) *Inode {
	f.mustMutable()
	var ino uint64
	if n := len(f.freeInos); n > 0 {
		// Recycle, exactly like a real filesystem would. DetTrace must not
		// let a recycled number alias an old virtual inode (§5.5).
		ino = f.freeInos[n-1]
		f.freeInos = f.freeInos[:n-1]
	} else {
		ino = f.nextIno
		f.nextIno += f.inoStride
	}
	now := f.clock()
	nd := &Inode{
		Ino: ino, Mode: mode, Nlink: 1,
		Atime: now, Mtime: now, Ctime: now,
		fs: f,
	}
	if mode&abi.ModeTypeMask == abi.ModeDir {
		nd.entries = make(map[string]*Inode)
		nd.Nlink = 2
	}
	return nd
}

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.Mode&abi.ModeTypeMask == abi.ModeDir }

// IsSymlink reports whether the inode is a symbolic link.
func (n *Inode) IsSymlink() bool { return n.Mode&abi.ModeTypeMask == abi.ModeSymlink }

// IsRegular reports whether the inode is a regular file.
func (n *Inode) IsRegular() bool { return n.Mode&abi.ModeTypeMask == abi.ModeRegular }

// IsFIFO reports whether the inode is a named pipe.
func (n *Inode) IsFIFO() bool { return n.Mode&abi.ModeTypeMask == abi.ModeFIFO }

// IsDevice reports whether the inode is a character device.
func (n *Inode) IsDevice() bool { return n.Mode&abi.ModeTypeMask == abi.ModeCharDev }

// NumEntries returns the number of directory entries excluding "." and "..".
func (n *Inode) NumEntries() int { return n.entryCount() }

// Size returns the st_size the host reports for this inode. For directories
// this is where the machine-specific formula leaks through (§7.3).
func (n *Inode) Size() int64 {
	switch {
	case n.IsDir():
		return n.fs.profile.DirSize(n.entryCount())
	case n.IsSymlink():
		return int64(len(n.Target))
	default:
		return int64(len(n.Data))
	}
}

// Stat fills in the host-truth stat structure for the inode. DetTrace
// rewrites several of these fields before the tracee sees them.
func (n *Inode) Stat(out *abi.Stat) {
	*out = abi.Stat{
		Dev: n.fs.dev, Ino: n.Ino, Mode: n.Mode, Nlink: n.Nlink,
		UID: n.UID, GID: n.GID, Size: n.Size(),
		Blksize: 4096, Blocks: (n.Size() + 511) / 512,
		Atime: abi.TimespecFromNanos(n.Atime),
		Mtime: abi.TimespecFromNanos(n.Mtime),
		Ctime: abi.TimespecFromNanos(n.Ctime),
	}
}

// --- path resolution -------------------------------------------------------

// maxSymlinkDepth matches the kernel's ELOOP limit.
const maxSymlinkDepth = 40

// LookupCtx anchors a path resolution: the process's root (chroot) and
// current working directory.
type LookupCtx struct {
	Root *Inode
	Cwd  *Inode
}

// Resolve walks path and returns the inode it names. If followLast is false
// and the final component is a symlink, the link inode itself is returned
// (lstat semantics).
func (f *FS) Resolve(ctx LookupCtx, path string, followLast bool) (*Inode, abi.Errno) {
	n, _, _, err := f.resolve(ctx, path, followLast, 0)
	return n, err
}

// ResolveParent walks path and returns the parent directory of the final
// component along with the final component name. The final component itself
// need not exist.
func (f *FS) ResolveParent(ctx LookupCtx, path string) (*Inode, string, abi.Errno) {
	_, dir, name, err := f.resolve(ctx, path, false, 0)
	if err == abi.OK || err == abi.ENOENT {
		if dir == nil {
			return nil, "", abi.ENOENT
		}
		if name == "" {
			return nil, "", abi.EEXIST // path named the root itself
		}
		return dir, name, abi.OK
	}
	return nil, "", err
}

// resolve returns (target, parentDir, finalName, errno). When the final
// component is missing it returns (nil, parent, name, ENOENT) so callers can
// create it.
//
// It walks path in place, one component at a time, skipping every run of
// slashes: a lookup allocates nothing unless it meets a symlink, which gets
// the rest of path as it stands appended to its target.
func (f *FS) resolve(ctx LookupCtx, path string, followLast bool, depth int) (*Inode, *Inode, string, abi.Errno) {
	if depth > maxSymlinkDepth {
		return nil, nil, "", abi.ELOOP
	}
	if path == "" {
		return nil, nil, "", abi.ENOENT
	}
	cur := ctx.Cwd
	if path[0] == '/' {
		cur = ctx.Root
	}
	if cur == nil {
		return nil, nil, "", abi.ENOENT
	}
	rest := strings.TrimLeft(path, "/")
	if rest == "" {
		return cur, cur, "", abi.OK
	}
	for {
		c := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			c, rest = rest[:i], strings.TrimLeft(rest[i:], "/")
		} else {
			rest = ""
		}
		if !cur.IsDir() {
			return nil, nil, "", abi.ENOTDIR
		}
		var next *Inode
		switch c {
		case ".":
			next = cur
		case "..":
			if cur == ctx.Root {
				next = cur // cannot escape the chroot
			} else {
				next = cur.parent
			}
		default:
			next = cur.lookup(c)
		}
		last := rest == ""
		if next == nil {
			if last {
				return nil, cur, c, abi.ENOENT
			}
			return nil, nil, "", abi.ENOENT
		}
		if next.IsSymlink() && (!last || followLast) {
			tgt := next.Target
			if rest != "" {
				tgt = tgt + "/" + rest
			}
			sub := ctx
			sub.Cwd = cur
			return f.resolve(sub, tgt, followLast, depth+1)
		}
		cur = next
		if last {
			return cur, cur.parent, c, abi.OK
		}
	}
}

// --- mutation --------------------------------------------------------------

// CreateFile creates a regular file under dir. EEXIST if the name is taken.
func (f *FS) CreateFile(dir *Inode, name string, mode uint32, uid, gid uint32) (*Inode, abi.Errno) {
	return f.createNode(dir, name, abi.ModeRegular|mode&abi.ModePermMask, uid, gid)
}

// Mkdir creates a directory under dir.
func (f *FS) Mkdir(dir *Inode, name string, mode uint32, uid, gid uint32) (*Inode, abi.Errno) {
	n, err := f.createNode(dir, name, abi.ModeDir|mode&abi.ModePermMask, uid, gid)
	if err == abi.OK {
		dir.Nlink++
	}
	return n, err
}

// Mkfifo creates a named pipe under dir.
func (f *FS) Mkfifo(dir *Inode, name string, mode uint32, uid, gid uint32) (*Inode, abi.Errno) {
	n, err := f.createNode(dir, name, abi.ModeFIFO|mode&abi.ModePermMask, uid, gid)
	if err == abi.OK {
		n.Pipe = NewPipe(DefaultPipeCapacity)
	}
	return n, err
}

// Mkdev creates a character device under dir; the kernel resolves devID to a
// Device implementation at open time, which lets DetTrace swap /dev/urandom
// for its PRNG without touching the tree.
func (f *FS) Mkdev(dir *Inode, name, devID string, uid, gid uint32) (*Inode, abi.Errno) {
	n, err := f.createNode(dir, name, abi.ModeCharDev|0o666, uid, gid)
	if err == abi.OK {
		n.DevID = devID
	}
	return n, err
}

// Symlink creates a symbolic link under dir pointing at target.
func (f *FS) Symlink(dir *Inode, name, target string, uid, gid uint32) (*Inode, abi.Errno) {
	n, err := f.createNode(dir, name, abi.ModeSymlink|0o777, uid, gid)
	if err == abi.OK {
		n.Target = target
	}
	return n, err
}

func (f *FS) createNode(dir *Inode, name string, mode uint32, uid, gid uint32) (*Inode, abi.Errno) {
	if !dir.IsDir() {
		return nil, abi.ENOTDIR
	}
	if name == "" || name == "." || name == ".." {
		return nil, abi.EINVAL
	}
	if _, ok := dir.ents()[name]; ok {
		return nil, abi.EEXIST
	}
	n := f.newInode(mode)
	n.UID, n.GID = uid, gid
	n.parent = dir
	dir.ents()[name] = n
	dir.touchMtime()
	return n, abi.OK
}

// Link adds a hard link to an existing inode. Directories cannot be linked.
func (f *FS) Link(dir *Inode, name string, target *Inode) abi.Errno {
	f.mustMutable()
	if target.IsDir() {
		return abi.EPERM
	}
	if _, ok := dir.ents()[name]; ok {
		return abi.EEXIST
	}
	dir.ents()[name] = target
	target.Nlink++
	target.Ctime = f.clock()
	dir.touchMtime()
	return abi.OK
}

// Unlink removes name from dir. Freed inode numbers go to the recycle list.
func (f *FS) Unlink(dir *Inode, name string) abi.Errno {
	f.mustMutable()
	n, ok := dir.ents()[name]
	if !ok {
		return abi.ENOENT
	}
	if n.IsDir() {
		return abi.EISDIR
	}
	delete(dir.ents(), name)
	dir.touchMtime()
	n.Nlink--
	n.Ctime = f.clock()
	if n.Nlink == 0 {
		f.freeInos = append(f.freeInos, n.Ino)
	}
	return abi.OK
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(dir *Inode, name string) abi.Errno {
	f.mustMutable()
	n, ok := dir.ents()[name]
	if !ok {
		return abi.ENOENT
	}
	if !n.IsDir() {
		return abi.ENOTDIR
	}
	if n.entryCount() != 0 {
		return abi.ENOTEMPTY
	}
	delete(dir.ents(), name)
	dir.Nlink--
	dir.touchMtime()
	f.freeInos = append(f.freeInos, n.Ino)
	return abi.OK
}

// Rename moves the entry oldName in oldDir to newName in newDir, replacing
// any existing non-directory target.
func (f *FS) Rename(oldDir *Inode, oldName string, newDir *Inode, newName string) abi.Errno {
	f.mustMutable()
	n, ok := oldDir.ents()[oldName]
	if !ok {
		return abi.ENOENT
	}
	if existing, ok := newDir.ents()[newName]; ok {
		if existing == n {
			return abi.OK
		}
		if existing.IsDir() {
			if !n.IsDir() {
				return abi.EISDIR
			}
			if existing.entryCount() != 0 {
				return abi.ENOTEMPTY
			}
			newDir.Nlink--
		}
	}
	delete(oldDir.ents(), oldName)
	newDir.ents()[newName] = n
	if n.IsDir() {
		n.parent = newDir
		oldDir.Nlink--
		newDir.Nlink++
	}
	now := f.clock()
	oldDir.Mtime, oldDir.Ctime = now, now
	newDir.Mtime, newDir.Ctime = now, now
	n.Ctime = now
	return abi.OK
}

// BindMount grafts src onto the entry name under dir, replacing whatever was
// there. This is the mechanism behind DetTrace's --working-dir flag.
func (f *FS) BindMount(dir *Inode, name string, src *Inode) abi.Errno {
	f.mustMutable()
	if !dir.IsDir() {
		return abi.ENOTDIR
	}
	dir.ents()[name] = src
	if src.IsDir() {
		src.parent = dir
	}
	return abi.OK
}

func (n *Inode) touchMtime() {
	now := n.fs.clock()
	n.Mtime, n.Ctime = now, now
}

// --- file IO ---------------------------------------------------------------

// ReadAt copies file bytes at off into p, returning the count. Reading past
// EOF returns 0. Updates atime, like a real (non-relatime) mount.
func (n *Inode) ReadAt(p []byte, off int64) int {
	if off >= int64(len(n.Data)) {
		return 0
	}
	c := copy(p, n.Data[off:])
	n.Atime = n.fs.clock()
	return c
}

// WriteAt copies p into the file at off, growing it as needed, and stamps
// mtime from the host clock — the timestamp tar will later embed.
func (n *Inode) WriteAt(p []byte, off int64) int {
	n.breakCOWData()
	end := off + int64(len(p))
	if end > int64(len(n.Data)) {
		grown := make([]byte, end)
		copy(grown, n.Data)
		n.Data = grown
	}
	copy(n.Data[off:], p)
	n.dataEpoch = n.fs.sealEpoch
	n.touchMtime()
	return len(p)
}

// Truncate resizes the file.
func (n *Inode) Truncate(size int64) abi.Errno {
	if !n.IsRegular() {
		return abi.EINVAL
	}
	n.breakCOWData()
	if size <= int64(len(n.Data)) {
		n.Data = n.Data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, n.Data)
		n.Data = grown
	}
	n.dataEpoch = n.fs.sealEpoch
	n.touchMtime()
	return abi.OK
}

// --- directory listing -----------------------------------------------------

// ReadDirRaw returns the entries of dir in the host filesystem's iteration
// order: a per-boot salted hash order, like ext4's htree. Two boots (or two
// machines) list the same directory differently, which is why DetTrace must
// sort getdents results (§5.5).
func (f *FS) ReadDirRaw(dir *Inode) []abi.Dirent {
	ents := dir.ents()
	names := make([]string, 0, len(ents))
	for name := range ents {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return f.nameHash(names[i]) < f.nameHash(names[j])
	})
	out := make([]abi.Dirent, len(names))
	for i, name := range names {
		e := ents[name]
		out[i] = abi.Dirent{Ino: e.Ino, Type: e.Mode & abi.ModeTypeMask, Name: name}
	}
	dir.Atime = f.clock()
	return out
}

// nameSeed derives the filesystem's directory-hash salt from the machine
// identity.
func nameSeed(name string) uint64 { return derive.DigestBytes([]byte(name)) }

// nameHash is an FNV-style hash salted with the filesystem seed.
func (f *FS) nameHash(name string) uint64 {
	h := f.hashSeed ^ 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}

// Walk visits every inode under root in sorted-path order, calling fn with
// the path (rooted at "/") and inode. Used by hashdeep and diffoscope.
func (f *FS) Walk(root *Inode, fn func(path string, n *Inode)) {
	fn("/", root)
	if root.IsDir() {
		walkSorted(root, "", fn)
	}
}

// walkSorted calls fn on every path below dir, named under prefix, in
// sorted order. That order interleaves a directory's entries with its
// subdirectories' subtrees: an entry sorts by its name, a subtree by its
// name plus "/", so /a, /a-b and /a.c all precede /a/x.
func walkSorted(dir *Inode, prefix string, fn func(path string, n *Inode)) {
	type item struct {
		name, path string
		n          *Inode
		subtree    bool
	}
	ents := dir.ents()
	items := make([]item, 0, len(ents))
	for name, n := range ents {
		p := n.path
		if !n.at(prefix, name) {
			p = prefix + "/" + name
		}
		items = append(items, item{name, p, n, false})
		if n.IsDir() {
			items = append(items, item{name, p, n, true})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		return keyLess(items[i].name, items[i].subtree, items[j].name, items[j].subtree)
	})
	for _, it := range items {
		if it.subtree {
			walkSorted(it.n, it.path, fn)
		} else {
			fn(it.path, it.n)
		}
	}
}

// keyLess orders two children of one directory by sorted-path key: name for
// the entry itself, name+"/" for a directory's subtree. Names never hold a
// "/", so two distinct keys never tie.
func keyLess(a string, aSub bool, b string, bSub bool) bool {
	k := min(len(a), len(b))
	if a[:k] != b[:k] {
		return a[:k] < b[:k]
	}
	return keyByte(a, k, aSub) < keyByte(b, k, bSub)
}

// keyByte returns the byte at i of name's key (name, or name+"/" when sub),
// -1 past its end.
func keyByte(name string, i int, sub bool) int {
	switch {
	case i < len(name):
		return int(name[i])
	case sub:
		return '/'
	}
	return -1
}

// at reports whether n's recorded path is prefix+"/"+name, comparing
// content.
func (n *Inode) at(prefix, name string) bool {
	p := n.path
	return len(p) == len(prefix)+1+len(name) && p[len(prefix)] == '/' &&
		p[:len(prefix)] == prefix && p[len(prefix)+1:] == name
}
