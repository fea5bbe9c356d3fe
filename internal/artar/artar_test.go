package artar

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	ar := &Archive{}
	ar.Add(Member{Name: "usr/bin/tool", Mode: 0o755, UID: 0, GID: 0, Mtime: 12345, Data: []byte("#!exe\npayload")})
	ar.Add(Member{Name: "doc/с изменениями.txt", Mode: 0o644, Mtime: -1, Data: []byte("utf-8 names & \"quotes\"\nnewlines\n")})
	ar.Add(Member{Name: "empty", Mode: 0o600})
	ar.Add(Member{Name: `ends in an escaped backslash \`, Mode: 0o644, Data: []byte("x")})

	back, err := Unpack(ar.Pack())
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if len(back.Members) != len(ar.Members) {
		t.Fatalf("members = %d", len(back.Members))
	}
	for i, m := range ar.Members {
		g := back.Members[i]
		if g.Name != m.Name || g.Mode != m.Mode || g.Mtime != m.Mtime || string(g.Data) != string(m.Data) {
			t.Errorf("member %d mismatch: %+v vs %+v", i, g, m)
		}
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not an archive"),
		[]byte(Magic + "\nentry broken"),
		[]byte(Magic + "\nentry name=\"a\" mode=644 uid=0 gid=0 mtime=0 size=100\nshort\n"),
		// These two used to panic: a negative size sliced out of range,
		// and the largest size overflowed the bounds check.
		[]byte(Magic + "\nentry name=\"a\" size=-1\n"),
		[]byte(Magic + "\nentry name=\"a\" size=9223372036854775807\n"),
		// Bad numbers are errors, not zeros.
		[]byte(Magic + "\nentry name=\"a\" size=x\n\n"),
		[]byte(Magic + "\nentry name=\"a\" uid=-1 size=0\n\n"),
		[]byte(Magic + "\nentry name=\"a\" gid=4294967296 size=0\n\n"),
		[]byte(Magic + "\nentry name=\"a\" mtime=1.5 size=0\n\n"),
		[]byte(Magic + "\nentry name=\"a\" mode=9 size=0\n\n"),
	}
	for i, c := range cases {
		if _, err := Unpack(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestIsArchive(t *testing.T) {
	ar := &Archive{}
	if !IsArchive(ar.Pack()) {
		t.Errorf("packed archive not recognized")
	}
	if IsArchive([]byte("plain")) {
		t.Errorf("plain data recognized as archive")
	}
}

func TestMemberOrderPreserved(t *testing.T) {
	ar := &Archive{}
	for i := 9; i >= 0; i-- {
		ar.Add(Member{Name: fmt.Sprintf("m%d", i)})
	}
	back, err := Unpack(ar.Pack())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range back.Members {
		if m.Name != fmt.Sprintf("m%d", 9-i) {
			t.Fatalf("order not preserved: %v", back.Members)
		}
	}
}

func TestNestedArchives(t *testing.T) {
	inner := &Archive{}
	inner.Add(Member{Name: "deep", Data: []byte("bottom")})
	outer := &Archive{}
	outer.Add(Member{Name: "data.tar", Data: inner.Pack()})
	back, err := Unpack(outer.Pack())
	if err != nil {
		t.Fatal(err)
	}
	innerBack, err := Unpack(back.Members[0].Data)
	if err != nil || string(innerBack.Members[0].Data) != "bottom" {
		t.Fatalf("nested round trip failed: %v", err)
	}
}

// Property: Pack/Unpack is the identity for arbitrary member contents,
// including newlines, quotes and the magic string itself.
func TestRoundTripProperty(t *testing.T) {
	prop := func(names []string, blobs [][]byte, mtimes []int64) bool {
		ar := &Archive{}
		for i := range blobs {
			name := fmt.Sprintf("m%d", i)
			if i < len(names) {
				name += "-" + strings.Map(func(r rune) rune {
					if r == '\n' || r == '\r' {
						return '_'
					}
					return r
				}, names[i])
			}
			var mt int64
			if i < len(mtimes) {
				mt = mtimes[i]
			}
			ar.Add(Member{Name: name, Mode: uint32(i) % 0o7777, Mtime: mt, Data: blobs[i]})
		}
		back, err := Unpack(ar.Pack())
		if err != nil || len(back.Members) != len(ar.Members) {
			return false
		}
		for i := range ar.Members {
			a, b := ar.Members[i], back.Members[i]
			if a.Name != b.Name || a.Mtime != b.Mtime || string(a.Data) != string(b.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: archives with adversarial payloads (containing the magic and
// header syntax) still round-trip.
func TestAdversarialPayloadProperty(t *testing.T) {
	payloads := [][]byte{
		[]byte(Magic + "\n"),
		[]byte("entry name=\"fake\" size=99\n"),
		[]byte("\nentry\n\n"),
	}
	for _, pl := range payloads {
		ar := &Archive{}
		ar.Add(Member{Name: "tricky", Data: pl})
		ar.Add(Member{Name: "after", Data: []byte("ok")})
		back, err := Unpack(ar.Pack())
		if err != nil {
			t.Fatalf("payload %q: %v", pl, err)
		}
		if string(back.Members[0].Data) != string(pl) || string(back.Members[1].Data) != "ok" {
			t.Errorf("payload %q corrupted", pl)
		}
	}
}

// FuzzArtarUnpack: Unpack never panics, and every archive it accepts packs
// back into one it reads identically. diffoscope and strip-nondeterminism
// unpack whatever a guest build produced, so a malformed archive must be a
// verdict, not a crash.
func FuzzArtarUnpack(f *testing.F) {
	ar := &Archive{}
	ar.Add(Member{Name: "usr/bin/tool", Mode: 0o755, UID: 1, GID: 2, Mtime: 12345, Data: []byte("#!exe\npayload")})
	ar.Add(Member{Name: `a\"b\\`, Mode: 0o644, Mtime: -1})
	f.Add(ar.Pack())
	f.Add([]byte(Magic + "\nentry name=\"a\" size=-1\n"))
	f.Add([]byte(Magic + "\nentry name=\"a\" size=9223372036854775807\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		ar, err := Unpack(raw)
		if err != nil {
			return
		}
		back, err := Unpack(ar.Pack())
		if err != nil {
			t.Fatalf("accepted archive does not unpack after Pack: %v", err)
		}
		if !reflect.DeepEqual(back, ar) {
			t.Fatalf("Pack round trip changed the archive:\n got %+v\nwant %+v", back, ar)
		}
	})
}
