package fs

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/prng"
)

// resolve returns the inode at p in f, failing the test if there is none.
func resolve(t testing.TB, f *FS, p string) *Inode {
	t.Helper()
	n, err := f.Resolve(rootCtx(f), p, true)
	if err != abi.OK {
		t.Fatalf("resolve %s: %v", p, err)
	}
	return n
}

// populatedHash is the hash of the tree Populate makes of im — im plus its
// implicit parents — recomputed in full from a copy.
func populatedHash(im *Image) uint64 {
	f := coldFS(im.Clone(), 1, 1)
	return f.SnapshotImage(f.Root).Clone().Hash()
}

// TestBorrowedBytesNeverWritten: a populated filesystem shares its image's
// file bytes, spare capacity included, yet no write or truncation reaches
// them: not on a filesystem that is never frozen, not on a fork, not on a
// filesystem resumed from a seal of either.
func TestBorrowedBytesNeverWritten(t *testing.T) {
	im := templateImage()
	roomy := make([]byte, 5, 64) // spare capacity a careless append would write into
	copy(roomy, "roomy")
	im.AddFile("/src/roomy.c", 0o644, roomy)
	pristine := im.Clone()
	spare := append([]byte(nil), roomy[:cap(roomy)]...)

	write := func(t *testing.T, f *FS) {
		resolve(t, f, "/src/main.c").WriteAt([]byte("INT"), 0)
		resolve(t, f, "/bin/cc").Truncate(1)
		r := resolve(t, f, "/src/roomy.c")
		r.Truncate(2)
		r.WriteAt([]byte("grown past the old end"), 4)
		resolve(t, f, "/bin/ld").WriteAt([]byte("!"), 2)
		if got := string(resolve(t, f, "/src/main.c").Data); got != "INT main(){}" {
			t.Fatalf("the write did not land: %q", got)
		}
	}
	clock := func() int64 { return 5 }
	for how, mk := range map[string]func() *FS{
		"never frozen": func() *FS { return coldFS(im, 1, 5) },
		"fork":         func() *FS { return prepare(im).Fork(clock, prng.NewHost(2)) },
		"resumed seal of a never-frozen fs": func() *FS {
			return coldFS(im, 1, 5).SealCheckpoint(false).Resume(clock, prng.NewHost(3))
		},
		"resumed delta seal of a fork": func() *FS {
			f := prepare(im).Fork(clock, prng.NewHost(2))
			f.SealCheckpoint(true)
			resolve(t, f, "/bin/ld").WriteAt([]byte("?"), 0)
			return f.SealCheckpoint(true).Resume(clock, prng.NewHost(3))
		},
	} {
		t.Run(how, func(t *testing.T) {
			write(t, mk())
			for p, e := range pristine.Entries {
				if !bytes.Equal(im.Entries[p].Data, e.Data) {
					t.Errorf("%s: the image's bytes changed to %q", p, im.Entries[p].Data)
				}
			}
			if !bytes.Equal(roomy[:cap(roomy)], spare) {
				t.Errorf("a write reached the spare capacity of an image's bytes")
			}
		})
	}
}

// TestImageMemoTravels: one TreeHash of a caller's image memoizes every leaf
// for each base populated from it afterwards, so no base hashes a file body
// again; a result image still hashes exactly as a full recompute, and keeps
// no image memo of its own.
func TestImageMemoTravels(t *testing.T) {
	im := linkedImage()
	tree := im.TreeHash()
	want := populatedHash(im)
	for i, base := range []*FS{prepare(im), prepare(im)} {
		base.Walk(base.Root, func(p string, n *Inode) {
			if n.IsRegular() && !n.memoized() {
				t.Errorf("base %d: %s holds no memo after the image's TreeHash", i, p)
			}
			if e, ok := im.Entries[p]; ok && n.IsRegular() && !sameSlice(n.Data, e.Data) {
				t.Errorf("base %d: %s copied the image's bytes", i, p)
			}
		})
		idle := base.Fork(func() int64 { return 7 }, prng.NewHost(uint64(i)))
		res := idle.SnapshotImage(idle.Root)
		if h := res.Hash(); h != want {
			t.Errorf("base %d: an untouched fork hashes to %#x, a full recompute to %#x", i, h, want)
		}
		if res.leaves.Load() != nil {
			t.Errorf("base %d: hashing a result image built an image memo nobody populates from", i)
		}
		fork := base.Fork(func() int64 { return 7 }, prng.NewHost(uint64(i)))
		mutateLinked(t, fork)
		got := fork.SnapshotImage(fork.Root)
		if h, full := got.Hash(), got.Clone().Hash(); h != full {
			t.Errorf("base %d: a result image hashes to %#x, a full recompute to %#x", i, h, full)
		}
	}
	if h, full := im.Hash(), im.Clone().Hash(); h != full || h != tree.Root {
		t.Errorf("a repeated Hash reads %#x, TreeHash %#x, a full recompute %#x", h, tree.Root, full)
	}
}

// TestImageMemoNeverStale: an entry replaced between the image's hash and
// Populate, by equal bytes in a new slice or by new metadata, is not stamped
// with the digest of the entry it replaced; the image, its base and the
// base's results all hash as a full recompute does.
func TestImageMemoNeverStale(t *testing.T) {
	edits := map[string]func(ImageEntry) ImageEntry{
		"equal bytes, new slice": func(e ImageEntry) ImageEntry { e.Data = append([]byte(nil), e.Data...); return e },
		"mode":                   func(e ImageEntry) ImageEntry { e.Mode ^= 0o111; return e },
		"uid":                    func(e ImageEntry) ImageEntry { e.UID++; return e },
	}
	for name, edit := range edits {
		im := linkedImage()
		before := im.TreeHash()
		im.Entries["/a/x"] = edit(im.Entries["/a/x"])
		want, wantBase := im.Clone().Hash(), populatedHash(im)
		base := prepare(im)
		n := resolve(t, base, "/a/x")
		if n.leaf.Load() != nil {
			t.Errorf("%s: the replaced entry's inode took the digest of the entry it replaced", name)
		}
		if !resolve(t, base, "/a/t").memoized() {
			t.Errorf("%s: an untouched entry's inode lost its memo", name)
		}
		fork := base.Fork(func() int64 { return 7 }, prng.NewHost(1))
		if got := fork.SnapshotImage(fork.Root).Hash(); got != wantBase {
			t.Errorf("%s: a result image hashes to %#x, a full recompute to %#x", name, got, wantBase)
		}
		if !n.memoized() {
			t.Errorf("%s: hashing a result did not memoize the replaced entry's digest", name)
		}
		if got := im.Hash(); got != want {
			t.Errorf("%s: the image rehashes to %#x, a full recompute to %#x", name, got, want)
		}
		if name != "equal bytes, new slice" && im.TreeHash().Leaves["/a/x"] == before.Leaves["/a/x"] {
			t.Errorf("%s: the edit did not move the leaf", name)
		}
	}
}

// TestImageMemoConcurrentPrepare: goroutines populate bases from one image
// while others hash it, publishing and reading its memo at once (run it
// under -race); every base and result still hashes as a full recompute.
func TestImageMemoConcurrentPrepare(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		im := linkedImage()
		want, wantBase := im.Clone().Hash(), populatedHash(im)
		if hashed {
			im.TreeHash()
		}
		got := make([]uint64, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					got[i] = im.Hash()
					return
				}
				base := prepare(im)
				fork := base.Fork(func() int64 { return 7 }, prng.NewHost(uint64(i)))
				fork.SnapshotImage(fork.Root).Hash()
				got[i] = base.SnapshotImage(base.Root).Hash()
				if x, err := fork.Resolve(rootCtx(fork), "/a/x", true); err == abi.OK {
					x.WriteAt([]byte("mine"), 0)
				}
			}(i)
		}
		wg.Wait()
		for i, h := range got {
			if w := []uint64{want, wantBase}[i%2]; h != w {
				t.Errorf("hashed=%v: goroutine %d read %#x, a full recompute %#x", hashed, i, h, w)
			}
		}
	}
}
