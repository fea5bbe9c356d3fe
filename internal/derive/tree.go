package derive

import "sort"

// TreeHash is the Merkle-style source-tree hash: one leaf digest per path
// (covering that entry's type, ownership, contents and link target) and a
// root fold over the sorted leaves. The root is the tree's content address —
// fs.Image.Hash returns exactly it — and the leaves are what incremental
// rebuilds diff: a one-file patch changes one leaf, and the planner
// invalidates exactly the derived state whose input set covers that leaf.
type TreeHash struct {
	Root   uint64
	Leaves map[string]uint64
}

// Fold accumulates a TreeHash root from (path, leaf) pairs added in sorted
// path order. The fold frames each pair, so the root commits to the path set
// as well as the contents: adding, removing or renaming an entry moves the
// root even if every surviving leaf is unchanged. A caller that already holds
// its paths in order (fs.Image's order memo) folds them here directly;
// FoldLeaves is the reference definition for an unordered leaf map.
type Fold struct{ h Hasher }

// NewFold returns the fold of the empty tree.
func NewFold() Fold { return Fold{h: Hasher{h: fnvOffset}} }

// Add folds the next pair. Paths must arrive in strictly increasing order.
func (f *Fold) Add(path string, leaf uint64) {
	f.h.Str(path)
	f.h.Num(leaf)
}

// Root returns the root digest of the pairs added so far.
func (f *Fold) Root() uint64 { return f.h.Sum() }

// FoldLeaves computes the root digest over leaves: it sorts the paths and
// folds them in that order.
func FoldLeaves(leaves map[string]uint64) uint64 {
	paths := make([]string, 0, len(leaves))
	for p := range leaves {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	f := NewFold()
	for _, p := range paths {
		f.Add(p, leaves[p])
	}
	return f.Root()
}

// Diff compares this tree against a base. dirty lists, in sorted order,
// every path whose leaf differs plus every path present in only one tree;
// shape reports whether the path sets themselves differ (a file added,
// removed or renamed). A shape change defeats incremental rebuilding —
// inode allocation and directory-listing outcomes depend on the path set —
// so the planner goes cold on it.
func (t TreeHash) Diff(base TreeHash) (dirty []string, shape bool) {
	for p, leaf := range t.Leaves {
		bl, ok := base.Leaves[p]
		if !ok {
			dirty = append(dirty, p)
			shape = true
		} else if bl != leaf {
			dirty = append(dirty, p)
		}
	}
	for p := range base.Leaves {
		if _, ok := t.Leaves[p]; !ok {
			dirty = append(dirty, p)
			shape = true
		}
	}
	sort.Strings(dirty)
	return dirty, shape
}
