package fs

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/machine"
	"repro/internal/prng"
)

// genImage decodes raw into an image of files, directories, symlinks,
// devices and FIFOs, no name "." or "..". An entry may sit under any earlier
// entry, a non-directory included, or under directories the image never
// names; Populate creates those as implicit parents.
func genImage(raw []byte) *Image {
	im := NewImage()
	parents := []string{""} // "" is the root
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	const alphabet = "abcxyz.-_0"
	for len(raw) > 0 && len(im.Entries) < 64 {
		kind, where := next(), next()
		name := string(alphabet[next()%byte(len(alphabet))]) + string(alphabet[next()%byte(len(alphabet))])
		if name == ".." {
			name = "dd"
		}
		parent := parents[int(where)%len(parents)]
		if where&0x80 != 0 { // an implicit parent the image never names
			parent += "/imp" + string(alphabet[where%byte(len(alphabet))])
		}
		p := parent + "/" + name
		perm := (uint32(next())<<8 | uint32(next())) & abi.ModePermMask
		uid, gid := uint32(next()%3), uint32(next()%3)
		if _, taken := im.Entries[p]; taken {
			continue
		}
		parents = append(parents, p)
		switch kind % 5 {
		case 0:
			im.AddDir(p, perm)
		case 1:
			n := int(next())
			im.AddFile(p, perm, append([]byte(nil), raw[:n%(len(raw)+1)]...))
		case 2:
			im.AddSymlink(p, parent+"/"+name+"-target")
		case 3:
			im.AddDev(p, "dev"+name)
		case 4:
			im.AddFifo(p, perm)
		}
		e := im.Entries[p]
		e.UID, e.GID = uid, gid
		im.Entries[p] = e
	}
	return im
}

// populated returns what Populate makes of im: im minus every entry below a
// non-directory entry, plus every implicit parent directory of what is left
// (mode 0755, owned by root).
func populated(im *Image) *Image {
	out := NewImage()
	for p, e := range im.Entries {
		if !belowNonDir(im, p) {
			out.Entries[p] = e
		}
	}
	for p := range out.Entries {
		for q := parentOf(p); q != "/"; q = parentOf(q) {
			if _, ok := im.Entries[q]; !ok {
				out.Entries[q] = ImageEntry{Mode: abi.ModeDir | 0o755}
			}
		}
	}
	return out
}

// belowNonDir reports whether a proper ancestor of p is a non-directory
// entry of im.
func belowNonDir(im *Image, p string) bool {
	for q := parentOf(p); q != "/"; q = parentOf(q) {
		if e, ok := im.Entries[q]; ok && e.Mode&abi.ModeTypeMask != abi.ModeDir {
			return true
		}
	}
	return false
}

// FuzzImageRoundTrip: Populate then SnapshotImage gives back the generated
// image minus its entries below a non-directory, plus its implicit parents —
// on a live filesystem and on a fork of a frozen one, partly listed — and
// each result hashes as a full recompute.
func FuzzImageRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0o7, 0o55, 0, 0, 1, 1, 3, 4, 1, 0xa4, 1, 1, 5, 'h', 'i'})
	f.Add([]byte{0, 0x81, 1, 1, 0, 0o70, 2, 2, 1, 1, 2, 2, 0, 0o44, 0, 0, 2, 'x', 'y',
		2, 1, 3, 3, 0, 0, 0, 0, 3, 0, 4, 4, 0, 0, 1, 1, 4, 1, 5, 5, 1, 0o22, 2, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 0xa4, 0, 0, 0, 1, 1, 1, 1, 1, 0xa4, 0, 0, 0}) // a file below a file
	f.Fuzz(func(t *testing.T, raw []byte) {
		im := genImage(raw)
		want := populated(im)
		check := func(how string, got *Image) {
			t.Helper()
			if !got.Equal(want) {
				reportImageDiff(t, want, got)
				t.Fatalf("%s: SnapshotImage(Populate(image)) is not the image, minus entries below non-directories, plus its implicit parents", how)
			}
			if h := got.Hash(); h != got.Clone().Hash() || h != want.Hash() {
				t.Fatalf("%s: snapshot hashes to %#x, a full recompute to %#x", how, h, want.Hash())
			}
		}

		live := New(machine.CloudLabC220G5(), func() int64 { return 1 }, prng.NewHost(1))
		live.Populate(im)
		check("live", live.SnapshotImage(live.Root))

		base := New(machine.CloudLabC220G5(), func() int64 { return 0 }, prng.NewHost(2))
		base.Populate(im)
		base.Freeze()
		fork := base.Fork(func() int64 { return 1 }, prng.NewHost(1))
		check("fork", fork.SnapshotImage(fork.Root))
		if ps := im.Paths(); len(ps) > 0 { // list one path's directories, leave the rest
			fork.Resolve(LookupCtx{Root: fork.Root, Cwd: fork.Root}, ps[int(raw[0])%len(ps)], false)
		}
		check("listed fork", fork.SnapshotImage(fork.Root))
		check("base", base.SnapshotImage(base.Root))
	})
}
