package fs_test

import (
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/derive"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/prng"
)

// shareImage is a small boot image with a /data tree for the mutation rows
// to edit and /bin/main to run them.
func shareImage() *fs.Image {
	im := baseimg.Minimal()
	im.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	im.AddFile("/data/a", 0o644, []byte("alpha"))
	im.AddFile("/data/b", 0o644, []byte("beta-beta"))
	im.AddFile("/data/d/f", 0o644, []byte("deep"))
	im.AddDir("/data/empty", 0o755)
	return im
}

// shareRows are the image-visible mutations a guest can make, one per
// kernel entry point that changes a path, a body or the metadata an image
// records. "ls" changes nothing and "chmod-back" restores what it changed.
var shareRows = map[string]func(p *guest.Proc) abi.Errno{
	"ls": func(p *guest.Proc) abi.Errno {
		for _, dir := range []string{"/", "/data", "/data/d", "/proc"} {
			if _, err := p.ReadDir(dir); err != abi.OK {
				return err
			}
		}
		if _, err := p.Stat("/data/a"); err != abi.OK {
			return err
		}
		_, err := p.ReadFile("/data/b")
		return err
	},
	"chmod": func(p *guest.Proc) abi.Errno { return p.Chmod("/data/a", 0o600) },
	"chmod-back": func(p *guest.Proc) abi.Errno {
		if err := p.Chmod("/data/d/f", 0o600); err != abi.OK {
			return err
		}
		return p.Chmod("/data/d/f", 0o644)
	},
	"chown": func(p *guest.Proc) abi.Errno { return p.Chown("/data/d/f", 7, 7) },
	"write": func(p *guest.Proc) abi.Errno {
		fd, err := p.Open("/data/a", abi.OWronly, 0)
		if err != abi.OK {
			return err
		}
		defer p.Close(fd)
		_, err = p.Write(fd, []byte("A"))
		return err
	},
	"truncate": func(p *guest.Proc) abi.Errno { return p.Truncate("/data/b", 4) },
	"creat": func(p *guest.Proc) abi.Errno {
		sc := p.T.Syscall(&abi.Syscall{Num: abi.SysCreat, Path: "/data/new", Arg: [6]int64{0, 0o644}})
		if err := sc.Err(); err != abi.OK {
			return err
		}
		return p.Close(int(sc.Ret))
	},
	"unlink": func(p *guest.Proc) abi.Errno { return p.Unlink("/data/a") },
	"rename-swap": func(p *guest.Proc) abi.Errno {
		for _, mv := range [][2]string{{"/data/a", "/data/t"}, {"/data/b", "/data/a"}, {"/data/t", "/data/b"}} {
			if err := p.Rename(mv[0], mv[1]); err != abi.OK {
				return err
			}
		}
		return abi.OK
	},
	"link":    func(p *guest.Proc) abi.Errno { return p.Link("/data/a", "/data/a2") },
	"symlink": func(p *guest.Proc) abi.Errno { return p.Symlink("/data/a", "/data/s") },
	"mkdir":   func(p *guest.Proc) abi.Errno { return p.Mkdir("/data/new", 0o700) },
	"rmdir":   func(p *guest.Proc) abi.Errno { return p.Rmdir("/data/empty") },
}

// pristineRows are the rows whose result is the base's image.
var pristineRows = map[string]bool{"ls": true, "chmod-back": true}

// shareSnapshot prepares shareImage with a program that runs the row its
// first argument names.
func shareSnapshot() *kernel.Snapshot {
	reg := guest.NewRegistry()
	reg.Register("main", func(p *guest.Proc) int {
		if err := shareRows[p.Argv()[1]](p); err != abi.OK {
			p.Eprintf("%s: %s\n", p.Argv()[1], err)
			return 1
		}
		return 0
	})
	return kernel.Prepare(kernel.Config{Profile: machine.CloudLabC220G5(), Image: shareImage(), Resolver: reg.Resolver()})
}

// runRow boots a fork of snap, runs row natively and returns the fork's
// filesystem. It may run on any goroutine, so a failed run is an error, not
// a fatal one.
func runRow(t *testing.T, snap *kernel.Snapshot, row string, seed uint64) *fs.FS {
	t.Helper()
	k := snap.Boot(kernel.BootConfig{Seed: seed, Epoch: 1_500_000_000, Deadline: 3_600_000_000_000})
	proc := guest.Start(k, "/bin/main", []string{"main", row}, nil, "/")
	if err := k.Run(); err != nil || proc.ExitCode() != 0 {
		t.Errorf("%s: run err %v exit %d, stderr %q", row, err, proc.ExitCode(), k.Console.Stderr())
	}
	return k.FS
}

// TestPristineForkSharesBaseImage: a fork that changed nothing an image
// shows returns its base's image, the same pointer every time; a fork that
// changed anything — each row a different kernel entry point — returns its
// own image, equal to a fresh walk of its tree and different from the base's.
func TestPristineForkSharesBaseImage(t *testing.T) {
	snap := shareSnapshot()
	idle := runRow(t, snap, "ls", 1)
	shared := idle.SnapshotImage(idle.Root)
	if !shared.Equal(idle.WalkImage().Clone()) {
		t.Fatal("the shared image differs from a walk of an idle fork")
	}
	for row := range shareRows {
		f := runRow(t, snap, row, 2)
		got := f.SnapshotImage(f.Root)
		if !got.Equal(f.WalkImage().Clone()) || got.Hash() != f.WalkImage().Hash() {
			t.Errorf("%s: the result image differs from a walk of the fork", row)
		}
		if pristineRows[row] {
			if got != shared {
				t.Errorf("%s: a pristine fork built its own image instead of sharing its base's", row)
			}
			continue
		}
		if got == shared || got.Equal(shared) {
			t.Errorf("%s: the result image is (or equals) the base's, shared %v", row, got == shared)
		}
	}
}

// TestSharedImageFsMutations: the mutations made through fs rather than a
// guest — Amend and a workspace merge — unshare the result as well.
func TestSharedImageFsMutations(t *testing.T) {
	base := fs.New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0))
	base.Populate(shareImage())
	base.Freeze()
	fork := func() *fs.FS { return base.Fork(func() int64 { return 5 }, prng.NewHost(5)) }
	idle := fork()
	shared := idle.SnapshotImage(idle.Root)
	rows := map[string]func(t *testing.T, f *fs.FS){
		"amend": func(t *testing.T, f *fs.FS) {
			if !f.Amend("/data/a", []byte("patched")) {
				t.Fatal("amend failed")
			}
		},
		"workspace-merge": func(t *testing.T, f *fs.FS) {
			ws := f.ForkWorkspace(1)
			ws.WriteFile("/data/w", []byte("w"), 1)
			if _, err := fs.MergeWorkspaces([]*fs.Workspace{ws}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for row, mutate := range rows {
		f := fork()
		mutate(t, f)
		got := f.SnapshotImage(f.Root)
		if got == shared || got.Equal(shared) || !got.Equal(f.WalkImage().Clone()) {
			t.Errorf("%s: shared %v, equal to the base's %v, equal to a walk %v",
				row, got == shared, got.Equal(shared), got.Equal(f.WalkImage().Clone()))
		}
	}
	if again := fork(); again.SnapshotImage(again.Root) != shared {
		t.Error("a second idle fork did not share the base's image")
	}
	if base.SnapshotImage(base.Root) == shared {
		t.Error("SnapshotImage of the frozen base itself returned the stored image, want a fresh walk")
	}
}

// TestSharedImageConcurrentForks: forks of one fresh snapshot run at once,
// half of them idle, so the first idle ones race to build and publish the
// base's image while the others read it (run it under -race).
func TestSharedImageConcurrentForks(t *testing.T) {
	snap := shareSnapshot()
	rows := []string{"ls", "write", "ls", "mkdir", "ls", "chown", "ls", "unlink"}
	got := make([]*fs.Image, len(rows))
	walks := make([]*fs.Image, len(rows))
	var wg sync.WaitGroup
	for i, row := range rows {
		wg.Add(1)
		go func(i int, row string) {
			defer wg.Done()
			f := runRow(t, snap, row, uint64(i))
			got[i] = f.SnapshotImage(f.Root)
			got[i].Hash()
			walks[i] = f.WalkImage().Clone()
		}(i, row)
	}
	wg.Wait()
	for i, row := range rows {
		if !got[i].Equal(walks[i]) {
			t.Errorf("fork %d (%s): result differs from its walk", i, row)
		}
		if shared := row == "ls"; shared != (got[i] == got[0]) {
			t.Errorf("fork %d (%s): shares the base's image %v, want %v", i, row, got[i] == got[0], shared)
		}
	}
}

// TestPristineSnapshotAllocs: once the base's image exists, a pristine
// fork's SnapshotImage builds nothing.
func TestPristineSnapshotAllocs(t *testing.T) {
	base := fs.New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0))
	base.Populate(shareImage())
	base.Freeze()
	first := base.Fork(func() int64 { return 5 }, prng.NewHost(5))
	first.SnapshotImage(first.Root)
	f := base.Fork(func() int64 { return 6 }, prng.NewHost(6))
	if _, err := f.Resolve(fs.LookupCtx{Root: f.Root, Cwd: f.Root}, "/data/d/f", true); err != abi.OK {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { f.SnapshotImage(f.Root) }); a != 0 {
		t.Errorf("a pristine fork's SnapshotImage allocated %v times, want 0", a)
	}
}

// TestSharedImageRootMemo: the image pristine forks share is read-only, so
// its first Hash memoizes the reference root and later ones return it
// without allocating; a Clone of it, the caller's to edit, and a fork's own
// result image memoize none. The memo is a hint, like the order memo: an
// edit — two entries swapped between paths, one taken from another base's
// image, one deleted, or one changed — is hashed afresh.
func TestSharedImageRootMemo(t *testing.T) {
	base := fs.New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0))
	base.Populate(shareImage())
	base.Freeze()
	idle := base.Fork(func() int64 { return 5 }, prng.NewHost(5))
	shared := idle.SnapshotImage(idle.Root)
	if shared.MemoRoot() != 0 {
		t.Fatal("the shared image holds a root before any hash")
	}
	fold := func(im *fs.Image) uint64 {
		leaves := make(map[string]uint64, len(im.Entries))
		for p, e := range im.Entries {
			leaves[p] = e.LeafHash()
		}
		return derive.FoldLeaves(leaves)
	}
	want := fold(shared)
	if h := shared.Hash(); h != want || shared.MemoRoot() != want {
		t.Fatalf("Hash %#x, memoized root %#x, FoldLeaves %#x", h, shared.MemoRoot(), want)
	}
	if a := testing.AllocsPerRun(100, func() { shared.Hash() }); a != 0 {
		t.Errorf("hashing the shared image again allocated %v times, want 0", a)
	}
	c := shared.Clone()
	if c.Hash() != want || c.MemoRoot() != 0 {
		t.Errorf("a Clone of the shared image memoized root %#x", c.MemoRoot())
	}
	f := base.Fork(func() int64 { return 6 }, prng.NewHost(6))
	if !f.Amend("/data/a", []byte("patched")) {
		t.Fatal("amend failed")
	}
	own := f.SnapshotImage(f.Root)
	if own.Hash(); own == shared || own.MemoRoot() != 0 {
		t.Errorf("a changed fork's result image memoized root %#x (shared %v)", own.MemoRoot(), own == shared)
	}

	other := fs.New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(0))
	oim := shareImage()
	oim.AddFile("/data/a", 0o644, []byte("other"))
	other.Populate(oim)
	other.Freeze()
	of := other.Fork(func() int64 { return 7 }, prng.NewHost(7))
	foreign := of.SnapshotImage(of.Root)
	foreign.Hash()
	orig, origB := shared.Entries["/data/a"], shared.Entries["/data/b"]
	swap := func() {
		shared.Entries["/data/a"], shared.Entries["/data/b"] = shared.Entries["/data/b"], shared.Entries["/data/a"]
	}
	for _, edit := range []struct {
		name string
		do   func()
	}{
		{"swap", swap},
		{"swap back", swap},
		{"another base's entry", func() { shared.Entries["/data/a"] = foreign.Entries["/data/a"] }},
		{"own entry back", func() { shared.Entries["/data/a"] = orig }},
		{"delete", func() { delete(shared.Entries, "/data/b") }},
		{"restore", func() { shared.Entries["/data/b"] = origB }},
		{"chown", func() { e := shared.Entries["/data/a"]; e.UID++; shared.Entries["/data/a"] = e }},
	} {
		edit.do()
		if h, want := shared.Hash(), fold(shared); h != want {
			t.Errorf("%s: Hash %#x, FoldLeaves %#x", edit.name, h, want)
		}
	}
}
