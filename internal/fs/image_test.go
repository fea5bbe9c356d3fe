package fs

import (
	"testing"

	"repro/internal/abi"
)

func TestImageCloneIndependence(t *testing.T) {
	a := NewImage()
	a.AddFile("/f", 0o644, []byte("original"))
	b := a.Clone()
	b.Entries["/f"].Data[0] = 'X'
	b.AddFile("/extra", 0o644, nil)
	if string(a.Entries["/f"].Data) != "original" {
		t.Errorf("clone aliases the original's data")
	}
	if _, ok := a.Entries["/extra"]; ok {
		t.Errorf("clone shares the entry map")
	}
}

func TestImagePathNormalization(t *testing.T) {
	im := NewImage()
	im.AddFile("no/leading/slash", 0o644, nil)
	im.AddDir("/trailing/slash/", 0o755)
	if _, ok := im.Entries["/no/leading/slash"]; !ok {
		t.Errorf("relative path not normalized: %v", im.Paths())
	}
	if _, ok := im.Entries["/trailing/slash"]; !ok {
		t.Errorf("trailing slash not trimmed: %v", im.Paths())
	}
}

func TestImagePathsSorted(t *testing.T) {
	im := NewImage()
	for _, p := range []string{"/z", "/a", "/m/x", "/m"} {
		im.AddFile(p, 0o644, nil)
	}
	ps := im.Paths()
	for i := 1; i < len(ps); i++ {
		if ps[i-1] >= ps[i] {
			t.Fatalf("paths not sorted: %v", ps)
		}
	}
}

func TestPopulateCreatesMissingParents(t *testing.T) {
	im := NewImage()
	im.AddFile("/deep/ly/nested/file", 0o600, []byte("x"))
	f := newFS()
	f.Populate(im)
	n, err := f.Resolve(rootCtx(f), "/deep/ly/nested/file", true)
	if err != abi.OK || !n.IsRegular() {
		t.Fatalf("resolve: %v", err)
	}
	dir, err := f.Resolve(rootCtx(f), "/deep/ly", true)
	if err != abi.OK || !dir.IsDir() {
		t.Fatalf("parent missing: %v", err)
	}
}

// An entry below a non-directory cannot be created; Populate skips it and
// keeps the rest, as it skips any create that fails.
func TestPopulateSkipsEntriesBelowFiles(t *testing.T) {
	im := NewImage()
	im.AddFile("/a", 0o644, []byte("file"))
	im.AddFile("/a/b/c", 0o644, []byte("below a file"))
	f := newFS()
	f.Populate(im)
	want := NewImage()
	want.AddFile("/a", 0o644, []byte("file"))
	if got := f.SnapshotImage(f.Root); !got.Equal(want) {
		reportImageDiff(t, want, got)
		t.Fatalf("Populate did not keep /a a file and skip /a/b/c")
	}
}

func TestPopulateDeviceAndSymlink(t *testing.T) {
	im := NewImage()
	im.AddDev("/dev/custom", "custom-id")
	im.AddSymlink("/ln", "/dev/custom")
	f := newFS()
	f.Populate(im)
	n, err := f.Resolve(rootCtx(f), "/ln", true)
	if err != abi.OK || !n.IsDevice() || n.DevID != "custom-id" {
		t.Fatalf("device via symlink: %v %+v", err, n)
	}
}

func TestSnapshotRoundTripPermissions(t *testing.T) {
	im := NewImage()
	im.AddFile("/exe", 0o755, []byte("#!"))
	im.AddFile("/secret", 0o600, []byte("s"))
	f := newFS()
	f.Populate(im)
	back := f.SnapshotImage(f.Root)
	if back.Entries["/exe"].Mode&abi.ModePermMask != 0o755 {
		t.Errorf("exe mode = %o", back.Entries["/exe"].Mode)
	}
	if back.Entries["/secret"].Mode&abi.ModePermMask != 0o600 {
		t.Errorf("secret mode = %o", back.Entries["/secret"].Mode)
	}
}

func TestTwoPopulationsDifferentInodesSameContent(t *testing.T) {
	im := NewImage()
	im.AddFile("/f", 0o644, []byte("stable"))
	mk := func(seed uint64) *FS {
		clock := int64(0)
		f := New(profFor(), func() int64 { clock++; return clock }, hostPool(seed))
		f.Populate(im)
		return f
	}
	a, b := mk(1), mk(2)
	na, _ := a.Resolve(LookupCtx{Root: a.Root, Cwd: a.Root}, "/f", true)
	nb, _ := b.Resolve(LookupCtx{Root: b.Root, Cwd: b.Root}, "/f", true)
	if na.Ino == nb.Ino {
		t.Errorf("two chroot copies should get different inode numbers")
	}
	if string(na.Data) != string(nb.Data) {
		t.Errorf("content must match")
	}
}
