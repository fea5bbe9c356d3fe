package fs

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/abi"
	"repro/internal/derive"
	"repro/internal/machine"
	"repro/internal/prng"
)

// checkOrder asserts that im's order memo names exactly its key set, in
// sorted order, and that Hash and TreeHash agree with the reference fold over
// leaves computed straight from the entries.
func checkOrder(t *testing.T, how string, im *Image) {
	t.Helper()
	leaves := make(map[string]uint64, len(im.Entries))
	for p, e := range im.Entries {
		leaves[p] = e.LeafHash()
	}
	want := derive.FoldLeaves(leaves)
	if h, root := im.Hash(), im.TreeHash().Root; h != want || root != want {
		t.Fatalf("%s: Hash %#x, TreeHash root %#x, FoldLeaves %#x", how, h, root, want)
	}
	ps := im.Paths()
	if len(ps) != len(im.Entries) {
		t.Fatalf("%s: Paths has %d paths, the image %d", how, len(ps), len(im.Entries))
	}
	for i, p := range ps {
		if _, ok := im.Entries[p]; !ok {
			t.Fatalf("%s: Paths names %q, which the image lacks", how, p)
		}
		if i > 0 && ps[i-1] >= p {
			t.Fatalf("%s: Paths out of order at %q, %q", how, ps[i-1], p)
		}
	}
}

// editImage applies one generated edit to im: add a new path, delete one,
// or replace one's entry. It picks without consulting the order memo.
func editImage(im *Image, kind, pick byte, i int) {
	ps := make([]string, 0, len(im.Entries))
	for p := range im.Entries {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	switch kind % 3 {
	case 0:
		im.AddFile(fmt.Sprintf("/e%d/%c", i, 'a'+pick%26), 0o644, []byte{pick})
	case 1:
		if len(ps) > 0 {
			delete(im.Entries, ps[int(pick)%len(ps)])
		}
	case 2:
		if len(ps) > 0 {
			p := ps[int(pick)%len(ps)]
			e := im.Entries[p]
			e.UID++
			im.Entries[p] = e
		}
	}
}

// TestOrderMemoImageEdits: adding, deleting or replacing entries after a
// Hash never leaves the order memo stale — including a delete plus an add,
// which keeps the length the memo was taken at. Each byte of runs is how
// many edits land between two checks.
func TestOrderMemoImageEdits(t *testing.T) {
	prop := func(raw, edits, runs []byte) bool {
		im := genImage(raw)
		checkOrder(t, "generated", im)
		for i := 0; i+1 < len(edits); {
			n := 1
			if len(runs) > 0 {
				n, runs = 1+int(runs[0]%3), runs[1:]
			}
			for ; n > 0 && i+1 < len(edits); n, i = n-1, i+2 {
				editImage(im, edits[i], edits[i+1], i)
			}
			checkOrder(t, fmt.Sprintf("after edit %d", i/2), im)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// editFS applies one generated edit, naming everything by path so a cold
// filesystem and a fork of the same image take the same edit. paths is the
// sorted path list both hold before it.
func editFS(f *FS, kind, pick byte, i int, paths []string) {
	ctx := LookupCtx{Root: f.Root, Cwd: f.Root}
	get := func(p string) *Inode {
		n, _ := f.Resolve(ctx, p, false)
		return n
	}
	p := "/"
	if len(paths) > 0 {
		p = paths[int(pick)%len(paths)]
	}
	n := get(p)
	if n == nil {
		return
	}
	dir, name, fresh := get(parentOf(p)), baseOf(p), fmt.Sprintf("g%d", i)
	switch kind % 6 {
	case 0: // create a file in the picked directory, or beside the picked file
		in := n
		if !in.IsDir() {
			in = dir
		}
		if c, err := f.CreateFile(in, fresh, 0o644, 0, 0); err == abi.OK {
			c.WriteAt([]byte(fresh), 0)
		}
	case 1: // unlink a file, remove an empty directory
		if n.IsDir() {
			f.Rmdir(dir, name)
		} else {
			f.Unlink(dir, name)
		}
	case 2: // rename a directory, subtree and all, to a new top-level name
		if n.IsDir() && n != f.Root {
			f.Rename(dir, name, f.Root, fresh)
		}
	case 3: // bind-mount the picked inode at a new top-level name
		if n != f.Root {
			f.BindMount(f.Root, fresh, n)
		}
	case 4: // write in place
		if n.IsRegular() {
			n.WriteAt([]byte{kind, pick}, int64(pick%4))
		}
	case 5: // make a directory in the picked one
		if n.IsDir() {
			f.Mkdir(n, fresh, 0o750, 0, 0)
		}
	}
}

// TestOrderMemoForkEdits: a fork's result image, after a generated mix of
// creates, unlinks, renames of base directories, bind mounts and writes,
// carries an order memo that names exactly its paths, hashes as the
// reference fold, and equals the image of a cold filesystem that took the
// same edits. So does the frozen base's own image, before and after.
func TestOrderMemoForkEdits(t *testing.T) {
	prop := func(raw, edits []byte) bool {
		im := genImage(raw)
		cold := New(machine.CloudLabC220G5(), func() int64 { return 1 }, prng.NewHost(1))
		cold.Populate(im)
		base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(2))
		base.Populate(im)
		base.Freeze()
		pre := base.SnapshotImage(base.Root)
		checkOrder(t, "base", pre)
		fork := base.Fork(func() int64 { return 1 }, prng.NewHost(1))
		for i := 0; i+1 < len(edits) && i < 48; i += 2 {
			paths := cold.SnapshotImage(cold.Root).Paths()
			editFS(cold, edits[i], edits[i+1], i, paths)
			editFS(fork, edits[i], edits[i+1], i, paths)
		}
		want := cold.SnapshotImage(cold.Root)
		got := fork.SnapshotImage(fork.Root)
		checkOrder(t, "fork", got)
		if !got.Equal(want) || got.Hash() != want.Hash() {
			reportImageDiff(t, want, got)
			t.Fatalf("the fork's image differs from the cold filesystem's")
		}
		if after := base.SnapshotImage(base.Root); !after.Equal(pre) || after.Hash() != pre.Hash() {
			t.Fatalf("the frozen base changed under its fork")
		}
		if len(edits) > 1 {
			// A pristine fork's result is its base's shared image, which
			// no caller may edit; a Clone is the caller's own.
			edited := got.Clone()
			editImage(edited, edits[0], edits[1], -1)
			checkOrder(t, "edited clone of the result", edited)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// wideImage is an image of n files spread over ten directories.
func wideImage(n int) *Image {
	im := NewImage()
	for i := 0; i < n; i++ {
		im.AddFile(fmt.Sprintf("/usr/d%d/file%03d", i%10, i), 0o644, []byte{byte(i)})
	}
	return im
}

// TestOrderSnapshotAllocs pins what a fork's result image costs: an
// untouched fork's SnapshotImage allocates as often for a 400-path base as
// for a 100-path one, and hashing a result image again allocates nothing.
func TestOrderSnapshotAllocs(t *testing.T) {
	snapAllocs := func(n int) float64 {
		fork := forkFS(wideImage(n), 1, 1)
		return testing.AllocsPerRun(20, func() { fork.SnapshotImage(fork.Root) })
	}
	if small, large := snapAllocs(100), snapAllocs(400); small != large {
		t.Errorf("untouched fork's SnapshotImage: %v allocations at 100 paths, %v at 400", small, large)
	}

	fork := forkFS(wideImage(100), 1, 1)
	idle := fork.SnapshotImage(fork.Root)
	ctx := LookupCtx{Root: fork.Root, Cwd: fork.Root}
	d, _ := fork.Resolve(ctx, "/usr/d3", true)
	fork.CreateFile(d, "new", 0o644, 0, 0)
	fork.Unlink(d, "file003")
	touched := fork.SnapshotImage(fork.Root)
	for how, im := range map[string]*Image{"untouched": idle, "touched": touched} {
		im.Hash()
		if a := testing.AllocsPerRun(20, func() { im.Hash() }); a != 0 {
			t.Errorf("%s fork's result image: a repeated Hash allocated %v times, want 0", how, a)
		}
	}
}

// TestLookupShellsOnePath: resolving /bin/ls in a fork shells exactly the
// inodes on that path, and listing /bin afterwards still shows the cold
// boot's inode numbers. A name a lookup found missing can still be created.
func TestLookupShellsOnePath(t *testing.T) {
	im := templateImage()
	im.AddFile("/bin/ls", 0o755, []byte("#!ls"))
	const seed, stamp = 0x15, int64(1e18)
	cold, fork := coldFS(im, seed, stamp), forkFS(im, seed, stamp)
	ctx := LookupCtx{Root: fork.Root, Cwd: fork.Root}
	if _, err := fork.Resolve(ctx, "/bin/nope", true); err != abi.ENOENT {
		t.Fatalf("resolve /bin/nope: %v, want ENOENT", err)
	}
	ls, err := fork.Resolve(ctx, "/bin/ls", true)
	if err != abi.OK || string(ls.Data) != "#!ls" {
		t.Fatalf("resolve /bin/ls: %v", err)
	}
	var shelled []string
	for b := range fork.clones {
		shelled = append(shelled, b.path)
	}
	sort.Strings(shelled)
	if fmt.Sprint(shelled) != fmt.Sprint([]string{"", "/bin", "/bin/ls"}) {
		t.Errorf("resolving /bin/ls shelled %q, want only the root, /bin and /bin/ls", shelled)
	}
	if bin := ls.parent; bin == nil || !bin.cowDir || !fork.Root.cowDir {
		t.Errorf("a lookup materialized a whole directory")
	}
	for _, f := range []*FS{cold, fork} {
		bin, _ := f.Resolve(LookupCtx{Root: f.Root, Cwd: f.Root}, "/bin", true)
		if _, err := f.CreateFile(bin, "nope", 0o644, 0, 0); err != abi.OK {
			t.Fatalf("create /bin/nope after a failed lookup: %v", err)
		}
	}
	if n, err := fork.Resolve(ctx, "/bin/nope", true); err != abi.OK || n == nil {
		t.Errorf("resolve /bin/nope after creating it: %v", err)
	}
	for _, dir := range []string{"/bin", "/"} {
		c, _ := cold.Resolve(LookupCtx{Root: cold.Root, Cwd: cold.Root}, dir, true)
		f, _ := fork.Resolve(LookupCtx{Root: fork.Root, Cwd: fork.Root}, dir, true)
		if want, got := fmt.Sprint(cold.ReadDirRaw(c)), fmt.Sprint(fork.ReadDirRaw(f)); got != want {
			t.Errorf("ReadDirRaw(%s) after a lookup: %s, cold boot %s", dir, got, want)
		}
	}
}

// TestOrderConcurrent: goroutines populate from one shared image whose order
// memo none has filled yet, while others hash one fork's result image and
// the shared image itself (run it under -race).
func TestOrderConcurrent(t *testing.T) {
	im := linkedImage()
	base := linkedBase()
	fork := base.Fork(func() int64 { return 7 }, prng.NewHost(3))
	mutateLinked(t, fork)
	res := fork.SnapshotImage(fork.Root)
	want, wantIm := res.Clone().Hash(), im.Clone().Hash()

	const workers = 8
	pops := make([]*Image, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			f := New(machine.CloudLabC220G5(), func() int64 { return 1 }, prng.NewHost(uint64(i)))
			f.Populate(im)
			pops[i] = f.SnapshotImage(f.Root)
		}(i)
		go func() {
			defer wg.Done()
			if h := res.Hash(); h != want {
				t.Errorf("result image hashed to %#x, want %#x", h, want)
			}
			if h := im.Hash(); h != wantIm {
				t.Errorf("shared image hashed to %#x, want %#x", h, wantIm)
			}
		}()
	}
	wg.Wait()
	for i, p := range pops {
		if !p.Equal(populated(im)) {
			t.Errorf("populate %d differs from its image", i)
		}
	}
}

// TestPopulateImplicitParentsKeepOrder: an image with entries below
// directories it never names still leaves Populate's order for Freeze, the
// implicit parents merged in and stamped with their paths, and that order
// is the one a sorted walk of the tree gives. /a-x sorts before /a/b, so the
// implicit parents are made out of sorted order.
func TestPopulateImplicitParentsKeepOrder(t *testing.T) {
	im := NewImage()
	im.AddFile("/a-x/y", 0o644, []byte("y"))
	im.AddFile("/a/b/c", 0o644, []byte("c"))
	im.AddDir("/etc", 0o755)
	im.AddFile("/etc/ssl/certs/ca", 0o644, []byte("ca"))
	im.AddFile("/usr/lib/x/libz.so", 0o755, []byte("z"))
	f := New(machine.CloudLabC220G5(), func() int64 { return 1 }, prng.NewHost(1))
	f.Populate(im)
	if f.popOrder == nil {
		t.Fatal("Populate kept no order for an image with implicit parents")
	}
	var walked []string
	walkSorted(f.Root, "", func(p string, n *Inode) {
		walked = append(walked, p)
		if n.path != p {
			t.Errorf("%s is stamped %q", p, n.path)
		}
	})
	if fmt.Sprint(f.popOrder) != fmt.Sprint(walked) {
		t.Fatalf("Populate's order %q, a sorted walk %q", f.popOrder, walked)
	}
	f.Freeze()
	if fmt.Sprint(*f.order) != fmt.Sprint(walked) {
		t.Fatalf("frozen order %q, a sorted walk %q", *f.order, walked)
	}
	snap := f.SnapshotImage(f.Root)
	checkOrder(t, "frozen base", snap)
	if got := snap.Paths(); fmt.Sprint(got) != fmt.Sprint(walked) {
		t.Errorf("frozen base's image paths %q, a sorted walk %q", got, walked)
	}
}
