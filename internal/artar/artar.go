// Package artar defines the archive format the simulated toolchain uses —
// the stand-in for tar/ar/deb containers. Like real tar, each member header
// records name, mode, ownership and mtime, so an archive built from
// identical file contents still differs bitwise when the filesystem's
// timestamps differ. That is the property that makes zero stock Debian
// packages reproducible before strip-nondeterminism (§6.1).
package artar

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Magic identifies an artar archive.
const Magic = "!<artar>"

// Member is one archived file.
type Member struct {
	Name  string
	Mode  uint32
	UID   uint32
	GID   uint32
	Mtime int64 // seconds
	Data  []byte
}

// Archive is an ordered list of members. Order is significant — it is
// whatever order the packing tool walked the directory in, so host readdir
// order leaks into the artifact.
type Archive struct {
	Members []Member
}

// Add appends a member.
func (a *Archive) Add(m Member) { a.Members = append(a.Members, m) }

// Pack serializes the archive.
func (a *Archive) Pack() []byte {
	var buf bytes.Buffer
	buf.WriteString(Magic + "\n")
	for _, m := range a.Members {
		fmt.Fprintf(&buf, "entry name=%q mode=%o uid=%d gid=%d mtime=%d size=%d\n",
			m.Name, m.Mode, m.UID, m.GID, m.Mtime, len(m.Data))
		buf.Write(m.Data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Unpack parses archive bytes.
func Unpack(raw []byte) (*Archive, error) {
	if !bytes.HasPrefix(raw, []byte(Magic+"\n")) {
		return nil, fmt.Errorf("artar: bad magic")
	}
	rest := raw[len(Magic)+1:]
	ar := &Archive{}
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("artar: truncated header")
		}
		header := string(rest[:nl])
		rest = rest[nl+1:]
		m, size, err := parseHeader(header)
		if err != nil {
			return nil, err
		}
		// size bytes of data, then a newline: compared without size+1,
		// which overflows at the largest size.
		if size >= int64(len(rest)) {
			return nil, fmt.Errorf("artar: truncated member %q", m.Name)
		}
		m.Data = append([]byte(nil), rest[:size]...)
		rest = rest[size+1:] // skip trailing newline
		ar.Add(m)
	}
	return ar, nil
}

func parseHeader(h string) (Member, int64, error) {
	if !strings.HasPrefix(h, "entry ") {
		return Member{}, 0, fmt.Errorf("artar: bad header %q", h)
	}
	var m Member
	var size int64
	fields := splitFields(h[len("entry "):])
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Member{}, 0, fmt.Errorf("artar: bad field %q", f)
		}
		var err error
		switch k {
		case "name":
			m.Name, err = strconv.Unquote(v)
		case "mode":
			m.Mode, err = parseU32(v, 8)
		case "uid":
			m.UID, err = parseU32(v, 10)
		case "gid":
			m.GID, err = parseU32(v, 10)
		case "mtime":
			m.Mtime, err = strconv.ParseInt(v, 10, 64)
		case "size":
			if size, err = strconv.ParseInt(v, 10, 64); err == nil && size < 0 {
				err = strconv.ErrRange
			}
		}
		if err != nil {
			return Member{}, 0, fmt.Errorf("artar: bad %s %q", k, v)
		}
	}
	return m, size, nil
}

func parseU32(v string, base int) (uint32, error) {
	n, err := strconv.ParseUint(v, base, 32)
	return uint32(n), err
}

// splitFields splits on spaces outside quotes.
func splitFields(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(s):
			// An escape inside a quoted name: keep it and the escaped
			// byte, so `\\"` still ends the quote and `\"` does not.
			cur.WriteByte(c)
			i++
			cur.WriteByte(s[i])
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ' ' && !inQuote:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// IsArchive reports whether raw looks like an artar archive.
func IsArchive(raw []byte) bool { return bytes.HasPrefix(raw, []byte(Magic+"\n")) }
