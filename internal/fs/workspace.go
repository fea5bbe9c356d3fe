package fs

import (
	"fmt"
	"sort"

	"repro/internal/abi"
)

// This file implements thread workspaces (ISSUE 7): private copy-on-write
// views of a *live* filesystem that let sibling threads run concurrently
// between deterministic sync points, in the workspace-consistency model of
// Aviram/Ford's deterministic-parallelism work.
//
// A Workspace differs from a template Fork (cow.go) in every contract that
// matters:
//
//   - the base is live, not frozen: the container keeps mutating it through
//     the thread that holds the execution token, while detached siblings see
//     a journal overlay on top of it;
//   - forking a workspace draws NO entropy and reads NO clock — a workspace
//     is scheduling machinery, not a boot, so its existence must be invisible
//     to the guest's logical history;
//   - mutations are journaled, not applied: each op carries the logical rank
//     (the thread's LClock when the op was issued), and the journal is the
//     unit of merging.
//
// Merge contract (§4f of DESIGN.md). MergeWorkspaces processes workspaces in
// vTID order, reduces each journal to one final effect per path, and applies
// effects to the base in sorted-path order. When two workspaces leave
// different final effects on one path, the higher logical rank wins
// (write-wins by rank); an exact rank tie with differing effects is a
// deterministic merge conflict, surfaced as *MergeConflictError — never as a
// host-order-dependent pick. The result, the applied-op count and the merge
// digest are all pure functions of the journal set, so any host completion
// order of the workspace goroutines merges to a byte-identical filesystem.

// Workspace is one thread's private view of a live FS between sync points.
type Workspace struct {
	base *FS
	vtid int

	// journal is the ordered mutation log, ranks non-decreasing.
	journal []wsOp

	// overlay caches this workspace's own view per path so reads observe the
	// workspace's writes without touching the base.
	overlay map[string]wsOp

	discarded bool
}

// wsOp kinds. A journal entry's effect is fully described by (kind, data).
const (
	wsWrite  = iota // create-or-replace regular file contents
	wsMkdir         // create directory
	wsRemove        // unlink file / remove empty directory
)

// wsOp is one journaled mutation.
type wsOp struct {
	kind int
	path string
	data []byte
	rank int64 // logical rank (issuing thread's LClock); ordering authority
	vtid int   // owning workspace's vTID, for conflict reports
}

// MergeConflictError reports two workspaces whose final effects on one path
// tie on logical rank but differ in content. The error is itself
// deterministic: vTIDs are reported in ascending order.
type MergeConflictError struct {
	Path  string
	VTIDs [2]int
}

func (e *MergeConflictError) Error() string {
	return fmt.Sprintf("fs: workspace merge conflict on %s (vTID %d vs %d at equal rank)",
		e.Path, e.VTIDs[0], e.VTIDs[1])
}

// MergeStats summarizes one MergeWorkspaces call.
type MergeStats struct {
	Applied   int    // final effects applied to the base
	Conflicts int    // conflicting paths (0 unless the merge errored)
	Digest    uint64 // FNV over the winning effect set, for ring events/tests
}

// ForkWorkspace returns a private view of the live filesystem for the thread
// with the given vTID. It draws no entropy and reads no clock: workspace
// lifecycle must leave the guest-visible logical history untouched.
func (f *FS) ForkWorkspace(vtid int) *Workspace {
	f.mustMutable()
	f.wsOut++
	return &Workspace{base: f, vtid: vtid, overlay: make(map[string]wsOp)}
}

// Outstanding reports how many forked workspaces have been neither merged
// nor discarded. Checkpoint seals require this to be zero.
func (f *FS) Outstanding() int { return f.wsOut }

// VTID returns the owning thread's virtual TID.
func (w *Workspace) VTID() int { return w.vtid }

// Ops returns the journal length.
func (w *Workspace) Ops() int { return len(w.journal) }

// Discard drops the workspace without merging (thread killed mid-phase).
func (w *Workspace) Discard() {
	if !w.discarded {
		w.discarded = true
		w.base.wsOut--
	}
}

func (w *Workspace) record(op wsOp) {
	w.journal = append(w.journal, op)
	w.overlay[op.path] = op
}

// WriteFile journals a create-or-replace of path's contents at rank.
func (w *Workspace) WriteFile(path string, data []byte, rank int64) abi.Errno {
	if err := w.checkParent(path); err != abi.OK {
		return err
	}
	w.record(wsOp{kind: wsWrite, path: wsClean(path), data: append([]byte(nil), data...), rank: rank, vtid: w.vtid})
	return abi.OK
}

// Mkdir journals a directory creation at rank.
func (w *Workspace) Mkdir(path string, rank int64) abi.Errno {
	if err := w.checkParent(path); err != abi.OK {
		return err
	}
	w.record(wsOp{kind: wsMkdir, path: wsClean(path), rank: rank, vtid: w.vtid})
	return abi.OK
}

// Remove journals an unlink/rmdir of path at rank.
func (w *Workspace) Remove(path string, rank int64) abi.Errno {
	if _, err := w.stat(path); err != abi.OK {
		return err
	}
	w.record(wsOp{kind: wsRemove, path: wsClean(path), rank: rank, vtid: w.vtid})
	return abi.OK
}

// ReadFile returns path's contents as this workspace sees them: its own
// journal overlay first, the live base underneath.
func (w *Workspace) ReadFile(path string) ([]byte, abi.Errno) {
	if op, ok := w.overlay[wsClean(path)]; ok {
		switch op.kind {
		case wsWrite:
			return op.data, abi.OK
		case wsRemove:
			return nil, abi.ENOENT
		case wsMkdir:
			return nil, abi.EISDIR
		}
	}
	n, err := w.base.Resolve(LookupCtx{Root: w.base.Root, Cwd: w.base.Root}, path, true)
	if err != abi.OK {
		return nil, err
	}
	if n.IsDir() {
		return nil, abi.EISDIR
	}
	return n.Data, abi.OK
}

// stat reports whether path exists in the workspace view.
func (w *Workspace) stat(path string) (int, abi.Errno) {
	if op, ok := w.overlay[wsClean(path)]; ok {
		if op.kind == wsRemove {
			return 0, abi.ENOENT
		}
		return op.kind, abi.OK
	}
	n, err := w.base.Resolve(LookupCtx{Root: w.base.Root, Cwd: w.base.Root}, path, true)
	if err != abi.OK {
		return 0, err
	}
	if n.IsDir() {
		return wsMkdir, abi.OK
	}
	return wsWrite, abi.OK
}

// checkParent verifies the parent directory exists in the workspace view.
func (w *Workspace) checkParent(path string) abi.Errno {
	p := wsClean(path)
	i := lastSlash(p)
	if i <= 0 {
		return abi.OK // parent is the root
	}
	kind, err := w.stat(p[:i])
	if err != abi.OK {
		return err
	}
	if kind != wsMkdir {
		return abi.ENOTDIR
	}
	return abi.OK
}

func wsClean(path string) string {
	return "/" + joinComps(splitPath(path))
}

func joinComps(comps []string) string {
	out := ""
	for i, c := range comps {
		if i > 0 {
			out += "/"
		}
		out += c
	}
	return out
}

func lastSlash(p string) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return i
		}
	}
	return -1
}

// MergeWorkspaces merges the workspace set onto its shared base. The input
// slice may arrive in any host completion order; the merge sorts by vTID
// first, so every ordering decision below is a pure function of the journal
// contents. On conflict the base is left untouched and stats still carries
// the deterministic conflict count and digest.
func MergeWorkspaces(wss []*Workspace) (MergeStats, error) {
	var stats MergeStats
	if len(wss) == 0 {
		return stats, nil
	}
	base := wss[0].base
	ordered := make([]*Workspace, len(wss))
	copy(ordered, wss)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].vtid < ordered[j].vtid })

	// Reduce: per path, each workspace's final effect; across workspaces the
	// highest rank wins; an exact tie with differing effects is a conflict.
	winners := make(map[string]wsOp)
	var conflict *MergeConflictError
	for _, w := range ordered {
		if w.base != base {
			return stats, fmt.Errorf("fs: MergeWorkspaces across different bases")
		}
		for _, op := range w.journal {
			// Within one journal, later ops supersede earlier ones on the same
			// path; the overlay map already holds the final per-ws effect, so
			// only consider it once, at its first journal appearance.
			final := w.overlay[op.path]
			if final.rank != op.rank || final.kind != op.kind {
				continue // superseded within this workspace
			}
			cur, ok := winners[op.path]
			switch {
			case !ok:
				winners[op.path] = final
			case final.rank > cur.rank:
				winners[op.path] = final
			case final.rank == cur.rank && !sameEffect(final, cur):
				stats.Conflicts++
				if conflict == nil {
					lo, hi := cur.vtid, final.vtid
					if lo > hi {
						lo, hi = hi, lo
					}
					conflict = &MergeConflictError{Path: op.path, VTIDs: [2]int{lo, hi}}
				}
			}
		}
	}

	stats.Digest = digestWinners(winners)
	if conflict != nil {
		return stats, conflict
	}

	// Apply in sorted-path order so mkdir precedes children and the base's
	// mutation sequence (mtime touches, inode allocation) is deterministic.
	paths := make([]string, 0, len(winners))
	for p := range winners {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	ctx := LookupCtx{Root: base.Root, Cwd: base.Root}
	for _, p := range paths {
		if err := applyOp(base, ctx, winners[p]); err != abi.OK {
			return stats, fmt.Errorf("fs: workspace merge apply %s: %s", p, err)
		}
		stats.Applied++
	}
	for _, w := range ordered {
		w.Discard()
	}
	return stats, nil
}

// sameEffect reports whether two ops would leave the path identical.
func sameEffect(a, b wsOp) bool {
	if a.kind != b.kind {
		return false
	}
	return string(a.data) == string(b.data)
}

// digestWinners folds the winning effect set into one FNV value, iterating
// in sorted-path order so the digest is host-order independent.
func digestWinners(winners map[string]wsOp) uint64 {
	paths := make([]string, 0, len(winners))
	for p := range winners {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := uint64(0xcbf29ce484222325)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 0x100000001b3
		}
		h ^= 0xff
		h *= 0x100000001b3
	}
	for _, p := range paths {
		op := winners[p]
		mix(p)
		h ^= uint64(op.kind)
		h *= 0x100000001b3
		h ^= uint64(op.rank)
		h *= 0x100000001b3
		mix(string(op.data))
	}
	return h
}

// applyOp replays one winning effect onto the live base.
func applyOp(f *FS, ctx LookupCtx, op wsOp) abi.Errno {
	switch op.kind {
	case wsWrite:
		n, err := f.Resolve(ctx, op.path, true)
		if err == abi.ENOENT {
			dir, name, perr := f.ResolveParent(ctx, op.path)
			if perr != abi.OK {
				return perr
			}
			n, perr = f.CreateFile(dir, name, 0o644, 0, 0)
			if perr != abi.OK {
				return perr
			}
		} else if err != abi.OK {
			return err
		}
		if e := n.Truncate(0); e != abi.OK {
			return e
		}
		n.WriteAt(op.data, 0)
		return abi.OK
	case wsMkdir:
		dir, name, err := f.ResolveParent(ctx, op.path)
		if err != abi.OK {
			return err
		}
		_, err = f.Mkdir(dir, name, 0o755, 0, 0)
		if err == abi.EEXIST {
			return abi.OK // another merge already created it
		}
		return err
	case wsRemove:
		n, err := f.Resolve(ctx, op.path, false)
		if err != abi.OK {
			return abi.OK // already gone
		}
		dir, name, perr := f.ResolveParent(ctx, op.path)
		if perr != abi.OK {
			return perr
		}
		if n.IsDir() {
			return f.Rmdir(dir, name)
		}
		return f.Unlink(dir, name)
	}
	return abi.EINVAL
}
