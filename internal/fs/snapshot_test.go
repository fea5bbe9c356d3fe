package fs

import (
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/machine"
	"repro/internal/prng"
)

// linkedImage is the base of the snapshot tests: every node type, plus room
// for a hard link whose two names sit in different directories (linkedFS
// adds it, since an Image cannot express one).
func linkedImage() *Image {
	im := templateImage()
	im.AddFile("/a/x", 0o644, []byte("shared by /a/x and /b/y"))
	im.AddFile("/a/t", 0o644, []byte("truncate me"))
	im.AddFile("/a/m", 0o600, []byte("chmod me"))
	im.AddFile("/a/o", 0o644, []byte("chown me"))
	im.AddFile("/a/r", 0o644, []byte("rename me"))
	im.AddFile("/a/u", 0o644, []byte("unlink me"))
	im.AddFile("/b/z", 0o644, []byte("untouched neighbour"))
	im.AddFile("/c/deep/er/f", 0o644, []byte("deep and never listed"))
	im.AddDir("/d", 0o755)
	return im
}

// linkedFS populates linkedImage into f and hard-links /a/x as /b/y.
func linkedFS(f *FS) *FS {
	f.Populate(linkedImage())
	ctx := LookupCtx{Root: f.Root, Cwd: f.Root}
	x, _ := f.Resolve(ctx, "/a/x", true)
	b, _ := f.Resolve(ctx, "/b", true)
	if err := f.Link(b, "y", x); err != abi.OK {
		panic(err)
	}
	return f
}

// mutateLinked is the guest's work: every kind of change a build makes,
// issued through paths so it runs the same on a cold filesystem and on a
// fork. /b is never listed: its y is reached only through /a/x.
func mutateLinked(t testing.TB, f *FS) {
	t.Helper()
	ctx := LookupCtx{Root: f.Root, Cwd: f.Root}
	get := func(p string) *Inode {
		n, err := f.Resolve(ctx, p, true)
		if err != abi.OK {
			t.Fatalf("resolve %s: %v", p, err)
		}
		return n
	}
	a, d := get("/a"), get("/d")
	get("/a/x").WriteAt([]byte("SHARED"), 0) // in place, through the other name of /b/y
	get("/a/t").Truncate(4)
	m := get("/a/m")
	m.Mode = m.Mode&abi.ModeTypeMask | 0o755
	get("/a/o").UID = 1000 // metadata only: the bytes stay shared with the base
	if err := f.Rename(a, "r", d, "r2"); err != abi.OK {
		t.Fatalf("rename: %v", err)
	}
	if err := f.Unlink(a, "u"); err != abi.OK {
		t.Fatalf("unlink: %v", err)
	}
	if err := f.Link(d, "hard", get("/bin/cc")); err != abi.OK {
		t.Fatalf("link: %v", err)
	}
	n, _ := f.CreateFile(a, "new", 0o644, 0, 0)
	n.WriteAt([]byte("born in the run"), 0)
	if _, err := f.Mkdir(d, "sub", 0o700, 0, 0); err != abi.OK {
		t.Fatalf("mkdir: %v", err)
	}
}

// linkedBase is the frozen template of the snapshot tests.
func linkedBase() *FS {
	base := linkedFS(New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0xBA5E)))
	base.Freeze()
	return base
}

// checkSnapshot asserts what a fork's result image must satisfy: its hash is
// a full recompute's, it equals the cold filesystem that did the same work,
// and the base it was forked from is unchanged.
func checkSnapshot(t *testing.T, got *Image, cold *Image, base *FS, pre *Image) {
	t.Helper()
	if h, full := got.Hash(), got.Clone().Hash(); h != full {
		t.Errorf("result image hashes to %#x, a full recompute to %#x", h, full)
	}
	if got.Hash() != got.TreeHash().Root {
		t.Errorf("Hash and TreeHash disagree")
	}
	if !got.Equal(cold) || got.Hash() != cold.Hash() {
		reportImageDiff(t, cold, got)
		t.Errorf("fork's result differs from the cold run's")
	}
	after := base.SnapshotImage(base.Root)
	if !after.Equal(pre) || after.Hash() != pre.Hash() || after.Clone().Hash() != pre.Hash() {
		reportImageDiff(t, pre, after)
		t.Errorf("the frozen base changed under its fork")
	}
}

// TestForkSnapshotLeafMemo: a fork's result image shares the frozen base's
// bytes and memoized leaf digests, yet hashes exactly as a full recompute,
// equals a cold run's tree, and leaves the base as it was — whether the
// base's memos were filled before the fork (warm) or by it (cold).
func TestForkSnapshotLeafMemo(t *testing.T) {
	cold := linkedFS(New(machine.CloudLabC220G5(), func() int64 { return 7 }, prng.NewHost(3)))
	mutateLinked(t, cold)
	want := cold.SnapshotImage(cold.Root)

	for _, warm := range []bool{false, true} {
		base := linkedBase()
		pre := base.SnapshotImage(base.Root).Clone()
		if warm {
			base.SnapshotImage(base.Root).Hash()
		}
		fork := base.Fork(func() int64 { return 7 }, prng.NewHost(3))
		mutateLinked(t, fork)
		got := fork.SnapshotImage(fork.Root)
		if e := got.Entries["/b/z"]; e.src == nil || !sameSlice(e.Data, base.Root.entries["b"].entries["z"].Data) {
			t.Errorf("warm=%v: an untouched file in an unlisted directory is not read off the base", warm)
		}
		checkSnapshot(t, got, want, base, pre)

		// An untouched sibling fork still reads exactly the base.
		idleFS := base.Fork(func() int64 { return 9 }, prng.NewHost(4))
		idle := idleFS.SnapshotImage(idleFS.Root)
		if !idle.Equal(pre) || idle.Hash() != pre.Hash() {
			t.Errorf("warm=%v: an untouched fork's image differs from its base", warm)
		}
	}
}

// TestForkSnapshotConcurrent: eight forks of one base mutate, snapshot and
// hash at once, filling and reading the base's leaf memos concurrently (run
// it under -race).
func TestForkSnapshotConcurrent(t *testing.T) {
	cold := linkedFS(New(machine.CloudLabC220G5(), func() int64 { return 7 }, prng.NewHost(3)))
	mutateLinked(t, cold)
	want := cold.SnapshotImage(cold.Root)
	base := linkedBase()
	pre := base.SnapshotImage(base.Root).Clone()

	got := make([]*Image, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fork := base.Fork(func() int64 { return 7 }, prng.NewHost(3))
			mutateLinked(t, fork)
			got[i] = fork.SnapshotImage(fork.Root)
			got[i].Hash()
		}(i)
	}
	wg.Wait()
	for _, im := range got {
		checkSnapshot(t, im, want, base, pre)
	}
}

// TestLeafHashMemoNeedsExactEntry: an entry edited away from its frozen
// inode — any field, or Data re-sliced or copied — never takes the memo.
func TestLeafHashMemoNeedsExactEntry(t *testing.T) {
	base := linkedBase()
	im := base.SnapshotImage(base.Root)
	im.Hash() // fill every memo
	e := im.Entries["/a/x"]
	edits := map[string]func(ImageEntry) ImageEntry{
		"mode":   func(e ImageEntry) ImageEntry { e.Mode ^= 0o100; return e },
		"uid":    func(e ImageEntry) ImageEntry { e.UID++; return e },
		"gid":    func(e ImageEntry) ImageEntry { e.GID++; return e },
		"target": func(e ImageEntry) ImageEntry { e.Target = "x"; return e },
		"devid":  func(e ImageEntry) ImageEntry { e.DevID = "x"; return e },
		"resliced": func(e ImageEntry) ImageEntry {
			e.Data = e.Data[:len(e.Data)-1]
			return e
		},
		"copied": func(e ImageEntry) ImageEntry {
			e.Data = append([]byte(nil), e.Data...)
			e.Data[0] ^= 1
			return e
		},
	}
	for name, edit := range edits {
		got := edit(e)
		full := got
		full.src = nil
		if got.LeafHash() != full.LeafHash() || got.LeafHash() == e.LeafHash() {
			t.Errorf("%s: an edited entry took its inode's memoized digest", name)
		}
	}
}
