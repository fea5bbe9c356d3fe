package kernel_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
)

// A released open file description goes onto its kernel's free list and
// the next open reuses it. These tests pin what that buys, an open/close
// loop that allocates nothing, and what it must not break: a reused
// description carries nothing of its last life, and a description still
// shared by another descriptor is never reused.

// TestOpenCloseAllocatesNothing: after a warm-up, opening and closing a
// regular file, a directory and a missing path allocates nothing, under the
// baseline policy and under DetTrace. Under DetTrace ten thousand stats
// fill the flight recorder's ring first, so what is counted is the steady
// state.
func TestOpenCloseAllocatesNothing(t *testing.T) {
	measure := func(p *guest.Proc, allocs map[string]float64) {
		p.WriteFile("/tmp/f", []byte("data"), 0o644)
		for range 10_000 {
			p.Stat("/")
		}
		for _, c := range []struct {
			name  string
			path  string
			flags int
		}{
			{"file", "/tmp/f", abi.ORdonly},
			{"directory", "/tmp", abi.ORdonly | abi.ODirectory},
			{"missing", "/tmp/absent", abi.ORdonly},
		} {
			openClose := func() {
				if fd, err := p.Open(c.path, c.flags, 0); err == abi.OK {
					p.Close(fd)
				}
			}
			openClose()
			allocs[c.name] = testing.AllocsPerRun(1, func() {
				for range 1000 {
					openClose()
				}
			})
		}
	}
	baseline, dettrace := map[string]float64{}, map[string]float64{}
	mustRun(t, 1, func(p *guest.Proc) int {
		measure(p, baseline)
		return 0
	})
	reg := guest.NewRegistry()
	reg.Register("main", func(p *guest.Proc) int {
		measure(p, dettrace)
		return 0
	})
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	if res := core.New(core.Config{Image: img}).Run(reg, "/bin/main", []string{"main"}, nil); res.Err != nil {
		t.Fatal(res.Err)
	}
	for policy, allocs := range map[string]map[string]float64{"baseline": baseline, "dettrace": dettrace} {
		if len(allocs) != 3 {
			t.Errorf("%s: measured %d of 3 cases", policy, len(allocs))
		}
		for name, n := range allocs {
			if n != 0 {
				t.Errorf("%s, %s: %v allocations per 1000 open/close pairs, want 0", policy, name, n)
			}
		}
	}
}

// TestReusedDescriptionStartsClean: a description reused after its last
// close starts at position 0 with no directory snapshot, and one that a
// dup2'd or inherited descriptor still holds is not reused when another
// alias closes.
func TestReusedDescriptionStartsClean(t *testing.T) {
	mustRun(t, 1, func(p *guest.Proc) int {
		p.Mkdir("/tmp/d", 0o755)
		for _, n := range []string{"a", "b", "c"} {
			p.WriteFile("/tmp/d/"+n, []byte(n), 0o644)
		}
		p.WriteFile("/tmp/f", []byte("0123456789"), 0o644)
		p.WriteFile("/tmp/g", []byte("abcdefghij"), 0o644)
		read := func(fd, n int) string {
			buf := make([]byte, n)
			got, _ := p.Read(fd, buf)
			return string(buf[:got])
		}

		// A directory closed half-read hands on no snapshot.
		fd, _ := p.Open("/tmp/d", abi.ORdonly|abi.ODirectory, 0)
		if ents, _ := p.Getdents(fd, 1); len(ents) != 1 {
			t.Errorf("first getdents: %d entries, want 1", len(ents))
		}
		p.Close(fd)
		fd, _ = p.Open("/tmp/d", abi.ORdonly|abi.ODirectory, 0)
		if ents, _ := p.Getdents(fd, 0); len(ents) != 3 {
			t.Errorf("reopened directory lists %d entries, want 3", len(ents))
		}
		p.Close(fd)
		fd, _ = p.Open("/tmp/f", abi.ORdonly, 0)
		if ents, err := p.Getdents(fd, 0); err == abi.OK || len(ents) != 0 {
			t.Errorf("getdents on a file reusing a directory's description = %d entries, %v", len(ents), err)
		}
		p.Close(fd)

		// A reused description starts at position 0.
		fd, _ = p.Open("/tmp/f", abi.ORdonly, 0)
		read(fd, 4)
		p.Close(fd)
		fd, _ = p.Open("/tmp/g", abi.ORdonly, 0)
		if pos, _ := p.Lseek(fd, 0, abi.SeekCur); pos != 0 {
			t.Errorf("reused description at position %d, want 0", pos)
		}
		if got := read(fd, 3); got != "abc" {
			t.Errorf("reused description reads %q, want %q", got, "abc")
		}
		p.Close(fd)

		// A dup2'd description outlives the close of one alias.
		fd, _ = p.Open("/tmp/f", abi.ORdonly, 0)
		read(fd, 2)
		p.Dup2(fd, 10)
		p.Close(fd)
		other, _ := p.Open("/tmp/g", abi.ORdonly, 0)
		if got := read(10, 3); got != "234" {
			t.Errorf("dup2 alias reads %q after the original closed, want %q", got, "234")
		}
		p.Close(other)
		p.Close(10)

		// An inherited description outlives the child's close.
		fd, _ = p.Open("/tmp/f", abi.ORdonly, 0)
		read(fd, 5)
		pid, _ := p.Fork(func(c *guest.Proc) int {
			c.Close(fd)
			g, _ := c.Open("/tmp/g", abi.ORdonly, 0)
			c.Close(g)
			return 0
		})
		p.Waitpid(pid, 0)
		other, _ = p.Open("/tmp/g", abi.ORdonly, 0)
		if got := read(fd, 3); got != "567" {
			t.Errorf("inherited description reads %q after the child closed it, want %q", got, "567")
		}
		p.Close(other)
		p.Close(fd)

		// Pipe reader and writer counts: a dup2'd writer keeps the pipe
		// open across the original's close and across reuse of freed
		// descriptions; closing the last writer is EOF to the reader.
		r, w, _ := p.Pipe()
		p.Dup2(w, 20)
		p.Close(w)
		g, _ := p.Open("/tmp/g", abi.ORdonly, 0)
		p.Close(g)
		p.Write(20, []byte("xy"))
		if got := read(r, 8); got != "xy" {
			t.Errorf("pipe reads %q, want %q", got, "xy")
		}
		p.Close(20)
		if got := read(r, 8); got != "" {
			t.Errorf("pipe with no writers reads %q, want EOF", got)
		}
		p.Close(r)
		r, w, _ = p.Pipe()
		if n, err := p.Write(w, []byte("z")); n != 1 || err != abi.OK {
			t.Errorf("write to a fresh pipe on reused descriptions = %d, %v", n, err)
		}
		if got := read(r, 8); got != "z" {
			t.Errorf("fresh pipe reads %q, want %q", got, "z")
		}
		p.Close(w)
		p.Close(r)
		return 0
	})
}
