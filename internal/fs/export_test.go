package fs

import (
	"repro/internal/machine"
	"repro/internal/prng"
)

// prepare builds a frozen base from im the way kernel.Prepare does: a fresh
// filesystem with a constant clock and throwaway entropy, populated, frozen.
func prepare(im *Image) *FS {
	base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0))
	base.Populate(im)
	base.Freeze()
	return base
}

// memoized reports whether n holds a leaf memo computed from exactly its own
// image entry, so hashing an entry read off n reads none of its bytes.
func (n *Inode) memoized() bool {
	m := n.leaf.Load()
	return m != nil && m.e.same(n.imageEntry())
}

// WalkImage is SnapshotImage's walk of the whole tree: a fresh image, never
// the one a pristine fork shares with its base.
func (f *FS) WalkImage() *Image { return f.snapshotImage(f.Root) }

// MemoRoot is the root an image memoized on its first hash, 0 if none.
func (im *Image) MemoRoot() uint64 { return im.root.Load() }
