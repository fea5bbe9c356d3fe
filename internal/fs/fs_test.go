package fs

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/abi"
	"repro/internal/machine"
	"repro/internal/prng"
)

func newFS() *FS {
	clock := int64(1_000_000_000_000)
	return New(machine.CloudLabC220G5(), func() int64 { clock += 1e6; return clock }, prng.NewHost(42))
}

func rootCtx(f *FS) LookupCtx { return LookupCtx{Root: f.Root, Cwd: f.Root} }

func mustCreate(t *testing.T, f *FS, dir *Inode, name string) *Inode {
	t.Helper()
	n, err := f.CreateFile(dir, name, 0o644, 0, 0)
	if err != abi.OK {
		t.Fatalf("create %s: %v", name, err)
	}
	return n
}

func mustMkdir(t *testing.T, f *FS, dir *Inode, name string) *Inode {
	t.Helper()
	n, err := f.Mkdir(dir, name, 0o755, 0, 0)
	if err != abi.OK {
		t.Fatalf("mkdir %s: %v", name, err)
	}
	return n
}

func TestResolveBasics(t *testing.T) {
	f := newFS()
	a := mustMkdir(t, f, f.Root, "a")
	b := mustMkdir(t, f, a, "b")
	file := mustCreate(t, f, b, "f.txt")

	cases := []struct {
		path string
		want *Inode
	}{
		{"/a/b/f.txt", file},
		{"a/b/f.txt", file},
		{"/a/./b/../b/f.txt", file},
		{"/a/b/..", a},
		{"/..", f.Root},
		{"/../../..", f.Root}, // cannot escape the root
		{"/", f.Root},
	}
	for _, c := range cases {
		got, err := f.Resolve(rootCtx(f), c.path, true)
		if err != abi.OK || got != c.want {
			t.Errorf("Resolve(%q) = %v, %v", c.path, got, err)
		}
	}
	if _, err := f.Resolve(rootCtx(f), "/a/missing", true); err != abi.ENOENT {
		t.Errorf("missing path: %v, want ENOENT", err)
	}
	if _, err := f.Resolve(rootCtx(f), "/a/b/f.txt/x", true); err != abi.ENOTDIR {
		t.Errorf("file-as-dir: %v, want ENOTDIR", err)
	}
}

func TestChrootConfinement(t *testing.T) {
	f := newFS()
	jail := mustMkdir(t, f, f.Root, "jail")
	mustCreate(t, f, f.Root, "secret")
	mustCreate(t, f, jail, "inside")

	ctx := LookupCtx{Root: jail, Cwd: jail}
	if _, err := f.Resolve(ctx, "/inside", true); err != abi.OK {
		t.Errorf("inside: %v", err)
	}
	if _, err := f.Resolve(ctx, "/../secret", true); err != abi.ENOENT {
		t.Errorf("escape via ..: err=%v, want ENOENT", err)
	}
}

func TestSymlinks(t *testing.T) {
	f := newFS()
	dir := mustMkdir(t, f, f.Root, "real")
	target := mustCreate(t, f, dir, "target")
	if _, err := f.Symlink(f.Root, "ln", "/real/target", 0, 0); err != abi.OK {
		t.Fatalf("symlink: %v", err)
	}
	got, err := f.Resolve(rootCtx(f), "/ln", true)
	if err != abi.OK || got != target {
		t.Fatalf("follow: %v %v", got, err)
	}
	lnk, err := f.Resolve(rootCtx(f), "/ln", false)
	if err != abi.OK || !lnk.IsSymlink() {
		t.Fatalf("nofollow should return the link: %v", err)
	}
	// Relative symlink resolved from its directory.
	f.Symlink(dir, "rel", "target", 0, 0)
	got, err = f.Resolve(rootCtx(f), "/real/rel", true)
	if err != abi.OK || got != target {
		t.Errorf("relative symlink: %v %v", got, err)
	}
	// Symlink loop returns ELOOP.
	f.Symlink(f.Root, "loop1", "/loop2", 0, 0)
	f.Symlink(f.Root, "loop2", "/loop1", 0, 0)
	if _, err := f.Resolve(rootCtx(f), "/loop1", true); err != abi.ELOOP {
		t.Errorf("loop: %v, want ELOOP", err)
	}
}

func TestLinkAndUnlinkCounts(t *testing.T) {
	f := newFS()
	file := mustCreate(t, f, f.Root, "orig")
	if err := f.Link(f.Root, "extra", file); err != abi.OK {
		t.Fatalf("link: %v", err)
	}
	if file.Nlink != 2 {
		t.Errorf("nlink = %d, want 2", file.Nlink)
	}
	if err := f.Unlink(f.Root, "orig"); err != abi.OK {
		t.Fatalf("unlink: %v", err)
	}
	if file.Nlink != 1 {
		t.Errorf("nlink = %d after unlink, want 1", file.Nlink)
	}
	got, err := f.Resolve(rootCtx(f), "/extra", true)
	if err != abi.OK || got != file {
		t.Errorf("hard link target lost: %v", err)
	}
	if err := f.Link(f.Root, "dirlink", f.Root); err != abi.EPERM {
		t.Errorf("hard-linking a directory: %v, want EPERM", err)
	}
}

func TestInodeRecycling(t *testing.T) {
	f := newFS()
	a := mustCreate(t, f, f.Root, "a")
	ino := a.Ino
	if err := f.Unlink(f.Root, "a"); err != abi.OK {
		t.Fatal(err)
	}
	b := mustCreate(t, f, f.Root, "b")
	if b.Ino != ino {
		t.Errorf("expected the freed inode %d to be recycled, got %d", ino, b.Ino)
	}
}

func TestRenameSemantics(t *testing.T) {
	f := newFS()
	d1 := mustMkdir(t, f, f.Root, "d1")
	d2 := mustMkdir(t, f, f.Root, "d2")
	file := mustCreate(t, f, d1, "f")

	if err := f.Rename(d1, "f", d2, "g"); err != abi.OK {
		t.Fatalf("rename: %v", err)
	}
	if _, err := f.Resolve(rootCtx(f), "/d1/f", true); err != abi.ENOENT {
		t.Errorf("old name survives: %v", err)
	}
	got, _ := f.Resolve(rootCtx(f), "/d2/g", true)
	if got != file {
		t.Errorf("rename moved the wrong inode")
	}
	// Replacing an existing file.
	other := mustCreate(t, f, d2, "h")
	_ = other
	if err := f.Rename(d2, "g", d2, "h"); err != abi.OK {
		t.Fatalf("replace: %v", err)
	}
	got, _ = f.Resolve(rootCtx(f), "/d2/h", true)
	if got != file {
		t.Errorf("replace kept the old inode")
	}
	// Renaming a directory over a non-empty directory fails.
	sub := mustMkdir(t, f, f.Root, "sub")
	mustCreate(t, f, sub, "occupant")
	mustMkdir(t, f, f.Root, "movme")
	if err := f.Rename(f.Root, "movme", f.Root, "sub"); err != abi.ENOTEMPTY {
		t.Errorf("rename over non-empty dir: %v, want ENOTEMPTY", err)
	}
	_ = d1
}

func TestRmdirRules(t *testing.T) {
	f := newFS()
	d := mustMkdir(t, f, f.Root, "d")
	mustCreate(t, f, d, "f")
	if err := f.Rmdir(f.Root, "d"); err != abi.ENOTEMPTY {
		t.Errorf("rmdir non-empty: %v", err)
	}
	f.Unlink(d, "f")
	if err := f.Rmdir(f.Root, "d"); err != abi.OK {
		t.Errorf("rmdir empty: %v", err)
	}
	file := mustCreate(t, f, f.Root, "plain")
	_ = file
	if err := f.Rmdir(f.Root, "plain"); err != abi.ENOTDIR {
		t.Errorf("rmdir on file: %v", err)
	}
	if err := f.Unlink(f.Root, "plain"); err != abi.OK {
		t.Errorf("unlink file: %v", err)
	}
}

func TestReadWriteAt(t *testing.T) {
	f := newFS()
	file := mustCreate(t, f, f.Root, "f")
	if n := file.WriteAt([]byte("hello world"), 0); n != 11 {
		t.Fatalf("write = %d", n)
	}
	if n := file.WriteAt([]byte("WORLD"), 6); n != 5 {
		t.Fatalf("overwrite = %d", n)
	}
	buf := make([]byte, 64)
	n := file.ReadAt(buf, 0)
	if string(buf[:n]) != "hello WORLD" {
		t.Errorf("content = %q", buf[:n])
	}
	// Sparse extension zero-fills.
	file.WriteAt([]byte("!"), 20)
	if file.Size() != 21 {
		t.Errorf("size = %d", file.Size())
	}
	n = file.ReadAt(buf, 11)
	if !strings.HasPrefix(string(buf[:n]), "\x00") {
		t.Errorf("gap not zero-filled: %q", buf[:n])
	}
	if n := file.ReadAt(buf, 100); n != 0 {
		t.Errorf("read past EOF = %d", n)
	}
}

func TestTruncate(t *testing.T) {
	f := newFS()
	file := mustCreate(t, f, f.Root, "f")
	file.WriteAt([]byte("abcdef"), 0)
	if err := file.Truncate(3); err != abi.OK || string(file.Data) != "abc" {
		t.Errorf("shrink: %q %v", file.Data, err)
	}
	if err := file.Truncate(6); err != abi.OK || file.Size() != 6 {
		t.Errorf("grow: %d %v", file.Size(), err)
	}
	d := mustMkdir(t, f, f.Root, "d")
	if err := d.Truncate(0); err != abi.EINVAL {
		t.Errorf("truncate dir: %v", err)
	}
}

func TestMtimeFromClock(t *testing.T) {
	f := newFS()
	file := mustCreate(t, f, f.Root, "f")
	before := file.Mtime
	file.WriteAt([]byte("x"), 0)
	if file.Mtime <= before {
		t.Errorf("mtime did not advance on write")
	}
}

func TestReadDirOrderIsSaltedHashNotSorted(t *testing.T) {
	f := newFS()
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for _, n := range names {
		mustCreate(t, f, f.Root, n)
	}
	ents := f.ReadDirRaw(f.Root)
	if len(ents) != len(names) {
		t.Fatalf("entries = %d", len(ents))
	}
	var got []string
	sorted := true
	for i, e := range ents {
		got = append(got, e.Name)
		if i > 0 && ents[i-1].Name > e.Name {
			sorted = false
		}
	}
	if sorted {
		t.Errorf("host order accidentally sorted: %v", got)
	}
	// Stable across calls.
	again := f.ReadDirRaw(f.Root)
	for i := range again {
		if again[i].Name != ents[i].Name {
			t.Errorf("order unstable across calls")
			break
		}
	}
}

func TestDirSizeUsesMachineFormula(t *testing.T) {
	sky := machine.CloudLabC220G5()
	bro := machine.PortabilityBroadwell()
	mk := func(p *machine.Profile, n int) int64 {
		clock := int64(0)
		f := New(p, func() int64 { clock++; return clock }, prng.NewHost(1))
		for i := 0; i < n; i++ {
			f.CreateFile(f.Root, fmt.Sprintf("f%03d", i), 0o644, 0, 0)
		}
		return f.Root.Size()
	}
	if mk(sky, 100) == mk(bro, 100) {
		t.Errorf("directory sizes should differ across machines for 100 entries")
	}
}

func TestBindMount(t *testing.T) {
	f := newFS()
	src := mustMkdir(t, f, f.Root, "srcdir")
	mustCreate(t, f, src, "payload")
	tgt := mustMkdir(t, f, f.Root, "mnt")
	_ = tgt
	if err := f.BindMount(f.Root, "mnt", src); err != abi.OK {
		t.Fatalf("bind: %v", err)
	}
	got, err := f.Resolve(rootCtx(f), "/mnt/payload", true)
	if err != abi.OK || !got.IsRegular() {
		t.Errorf("bind-mounted payload unreachable: %v", err)
	}
}

func TestStatFields(t *testing.T) {
	f := newFS()
	file := mustCreate(t, f, f.Root, "f")
	file.WriteAt(make([]byte, 1500), 0)
	var st abi.Stat
	file.Stat(&st)
	if !st.IsRegular() || st.Size != 1500 || st.Blksize != 4096 {
		t.Errorf("stat = %+v", st)
	}
	if st.Blocks != (1500+511)/512 {
		t.Errorf("blocks = %d", st.Blocks)
	}
	if st.Mtime.Nanos() == 0 {
		t.Errorf("mtime missing")
	}
}

// Property: Populate then SnapshotImage is the identity on image content.
func TestImageRoundTripProperty(t *testing.T) {
	prop := func(namesRaw []uint8, blobs [][]byte) bool {
		im := NewImage()
		for i, b := range blobs {
			if i >= len(namesRaw) {
				break
			}
			name := fmt.Sprintf("/dir%d/file-%d", namesRaw[i]%3, i)
			im.AddFile(name, 0o644, b)
		}
		im.AddDir("/empty", 0o700)
		im.AddSymlink("/ln", "/empty")

		f := newFS()
		f.Populate(im)
		back := f.SnapshotImage(f.Root)
		for p, e := range im.Entries {
			g, ok := back.Entries[p]
			if !ok {
				return false
			}
			if string(g.Data) != string(e.Data) || g.Mode&abi.ModeTypeMask != e.Mode&abi.ModeTypeMask {
				return false
			}
			if e.Target != g.Target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Walk visits paths in sorted order, exactly once each.
func TestWalkSortedProperty(t *testing.T) {
	prop := func(seeds []uint8) bool {
		f := newFS()
		cur := f.Root
		for i, s := range seeds {
			name := fmt.Sprintf("n%02x", s)
			if s%3 == 0 {
				if d, err := f.Mkdir(cur, name, 0o755, 0, 0); err == abi.OK {
					cur = d
				}
			} else {
				f.CreateFile(cur, fmt.Sprintf("%s-%d", name, i), 0o644, 0, 0)
			}
		}
		var paths []string
		f.Walk(f.Root, func(p string, n *Inode) { paths = append(paths, p) })
		seen := map[string]bool{}
		for i, p := range paths {
			if seen[p] {
				return false
			}
			seen[p] = true
			if i > 1 && paths[i-1] >= p { // index 0 is "/"
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: creating then unlinking any set of names leaves the directory
// with its original entry count and link count.
func TestCreateUnlinkInvariant(t *testing.T) {
	prop := func(names []uint16) bool {
		f := newFS()
		base := f.Root.NumEntries()
		created := map[string]bool{}
		for _, n := range names {
			name := fmt.Sprintf("f%05d", n)
			if created[name] {
				continue
			}
			if _, err := f.CreateFile(f.Root, name, 0o644, 0, 0); err != abi.OK {
				return false
			}
			created[name] = true
		}
		for name := range created {
			if err := f.Unlink(f.Root, name); err != abi.OK {
				return false
			}
		}
		return f.Root.NumEntries() == base && f.Root.Nlink == 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// helpers shared with image_test.go
func profFor() *machine.Profile { return machine.CloudLabC220G5() }

func hostPool(seed uint64) *prng.Host { return prng.NewHost(seed) }

// TestResolveWalk pins what the in-place walk returns — target, parent,
// final name, errno — on the paths whose slashes, dot-dots and symlinks a
// split-based walk used to normalise away.
func TestResolveWalk(t *testing.T) {
	f := newFS()
	a := mustMkdir(t, f, f.Root, "a")
	b := mustMkdir(t, f, a, "b")
	jail := mustMkdir(t, f, b, "jail")
	if _, err := f.Symlink(f.Root, "l", "/a", 0, 0); err != abi.OK {
		t.Fatal(err)
	}
	if _, err := f.Symlink(f.Root, "loop", "loop", 0, 0); err != abi.OK {
		t.Fatal(err)
	}
	root := rootCtx(f)
	jailed := LookupCtx{Root: jail, Cwd: jail}
	cases := []struct {
		name   string
		ctx    LookupCtx
		path   string
		node   *Inode
		parent *Inode
		final  string
		err    abi.Errno
	}{
		{"empty", root, "", nil, nil, "", abi.ENOENT},
		{"root", root, "/", f.Root, f.Root, "", abi.OK},
		{"all slashes", root, "///", f.Root, f.Root, "", abi.OK},
		{"doubled slashes", root, "//a//b/", b, a, "b", abi.OK},
		{"dot-dot at chroot root", jailed, "..", jail, b, "..", abi.OK},
		{"trailing slash", root, "a/", a, f.Root, "a", abi.OK},
		{"symlink mid-path", root, "/l//b//", b, a, "b", abi.OK},
		{"symlink then dot-dot", root, "l///b//..//b", b, a, "b", abi.OK},
		{"symlink loop", root, "/loop/x", nil, nil, "", abi.ELOOP},
		{"missing last", root, "/a//missing/", nil, a, "missing", abi.ENOENT},
		{"missing mid-path", root, "/a/missing/b", nil, nil, "", abi.ENOENT},
		{"dot-dots among doubled slashes", root, "/a/b/jail/../../b/jail//", jail, b, "jail", abi.OK},
	}
	for _, c := range cases {
		node, parent, final, err := f.resolve(c.ctx, c.path, true, 0)
		if node != c.node || parent != c.parent || final != c.final || err != c.err {
			t.Errorf("%s: resolve(%q) = (%v, %v, %q, %v), want (%v, %v, %q, %v)", c.name, c.path,
				node, parent, final, err, c.node, c.parent, c.final, c.err)
		}
	}
	if dir, name, err := f.ResolveParent(root, "/l//missing"); dir != a || name != "missing" || err != abi.OK {
		t.Errorf("ResolveParent(/l//missing) = (%v, %q, %v), want (/a, missing, OK)", dir, name, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Resolve(root, "//a//b/jail/", true) }); allocs != 0 {
		t.Errorf("a symlink-free lookup allocated %v times, want 0", allocs)
	}

	// Walk's order is sorted-path order even where a directory's subtree
	// sorts after siblings that extend its name: "/a-b" and "/a.c" precede
	// "/a/b", because '-' and '.' sort before '/'.
	mustCreate(t, f, f.Root, "a-b")
	mustCreate(t, f, f.Root, "a.c")
	var walked []string
	f.Walk(f.Root, func(p string, _ *Inode) { walked = append(walked, p) })
	want := "[/ /a /a-b /a.c /a/b /a/b/jail /l /loop]"
	if got := fmt.Sprint(walked); got != want {
		t.Errorf("Walk order %s, want %s", got, want)
	}
}
