package guest_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
)

func TestExeFormatRoundTripProperty(t *testing.T) {
	prop := func(nameRaw string, payload []byte) bool {
		name := strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return '_'
			}
			return r
		}, nameRaw)
		if name == "" {
			name = "prog"
		}
		exe := guest.MakeExe(name, payload)
		got, pl, ok := guest.ParseExe(exe)
		return ok && got == name && bytes.Equal(pl, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParseExeRejectsNonExecutables(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("OBJ1\ncode:123\n"), []byte("#!repro-exe")} {
		if _, _, ok := guest.ParseExe(data); ok {
			t.Errorf("accepted %q", data)
		}
	}
}

// ParseExe never panics, and whatever it accepts is exactly the image
// MakeExe builds from the parts it returns.
func FuzzParseExe(f *testing.F) {
	f.Add(guest.MakeExe("cc", []byte("OBJ1\ncode:123\n")))
	f.Add([]byte("#!repro-exe "))
	f.Add([]byte("#!repro-exe cc"))
	f.Fuzz(func(t *testing.T, exe []byte) {
		prog, payload, ok := guest.ParseExe(exe)
		if ok && !bytes.Equal(guest.MakeExe(prog, payload), exe) {
			t.Fatalf("ParseExe(%q) = %q, %q, which MakeExe does not rebuild", exe, prog, payload)
		}
	})
}

func TestRegistryLookup(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("x", func(p *guest.Proc) int { return 0 })
	if _, ok := reg.Lookup("x"); !ok {
		t.Errorf("registered program not found")
	}
	if _, ok := reg.Lookup("y"); ok {
		t.Errorf("phantom program found")
	}
}

// run executes a guest program on a fresh kernel and returns console+kernel.
func run(t *testing.T, prog guest.Program) *kernel.Kernel {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	k := kernel.Prepare(kernel.Config{
		Profile: machine.CloudLabC220G5(), Image: baseimg.Minimal(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: 1, Epoch: 1_500_000_000,
	})
	img := &kernel.ExecImage{Path: "/bin/main", Argv: []string{"main"}}
	k.Start(reg.Bind(prog, img), img.Argv, []string{"PATH=/bin", "WHO=me"})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return k
}

func TestMkdirAllRelativeAndAbsolute(t *testing.T) {
	run(t, func(p *guest.Proc) int {
		if err := p.MkdirAll("/tmp/a/b/c", 0o755); err != abi.OK {
			p.Exit(1)
		}
		if _, err := p.Stat("/tmp/a/b/c"); err != abi.OK {
			p.Exit(2)
		}
		p.Chdir("/tmp")
		if err := p.MkdirAll("rel/x/y", 0o755); err != abi.OK {
			p.Exit(3)
		}
		if _, err := p.Stat("/tmp/rel/x/y"); err != abi.OK {
			p.Exit(4)
		}
		// Idempotent.
		if err := p.MkdirAll("/tmp/a/b/c", 0o755); err != abi.OK {
			p.Exit(5)
		}
		return 0
	})
}

func TestReadWriteFileHelpers(t *testing.T) {
	run(t, func(p *guest.Proc) int {
		data := bytes.Repeat([]byte("block"), 1000)
		if err := p.WriteFile("/tmp/big", data, 0o600); err != abi.OK {
			p.Exit(1)
		}
		back, err := p.ReadFile("/tmp/big")
		if err != abi.OK || !bytes.Equal(back, data) {
			p.Exit(2)
		}
		p.AppendFile("/tmp/big", []byte("tail"), 0o600)
		back, _ = p.ReadFile("/tmp/big")
		if !bytes.HasSuffix(back, []byte("tail")) {
			p.Exit(3)
		}
		st, _ := p.Stat("/tmp/big")
		if st.Mode&abi.ModePermMask != 0o600 {
			p.Exit(4)
		}
		return 0
	})
}

func TestGetenvAndArgv(t *testing.T) {
	k := run(t, func(p *guest.Proc) int {
		p.Printf("%s|%s|%s", p.Argv()[0], p.Getenv("WHO"), p.Getenv("MISSING"))
		return 0
	})
	if got := k.Console.Stdout(); got != "main|me|" {
		t.Errorf("stdout = %q", got)
	}
}

func TestSymlinkHelpers(t *testing.T) {
	run(t, func(p *guest.Proc) int {
		p.WriteFile("/tmp/target", []byte("T"), 0o644)
		if err := p.Symlink("/tmp/target", "/tmp/ln"); err != abi.OK {
			p.Exit(1)
		}
		got, err := p.Readlink("/tmp/ln")
		if err != abi.OK || got != "/tmp/target" {
			p.Exit(2)
		}
		data, err := p.ReadFile("/tmp/ln")
		if err != abi.OK || string(data) != "T" {
			p.Exit(3)
		}
		st, _ := p.Lstat("/tmp/ln")
		if st.Mode&abi.ModeTypeMask != abi.ModeSymlink {
			p.Exit(4)
		}
		return 0
	})
}

func TestUmaskAppliesToCreation(t *testing.T) {
	run(t, func(p *guest.Proc) int {
		old := p.Umask(0o077)
		_ = old
		p.WriteFile("/tmp/guarded", nil, 0o666)
		st, _ := p.Stat("/tmp/guarded")
		if st.Mode&abi.ModePermMask != 0o600 {
			p.Eprintf("mode = %o\n", st.Mode&abi.ModePermMask)
			p.Exit(1)
		}
		return 0
	})
}

func TestWeightFloorsAtOne(t *testing.T) {
	run(t, func(p *guest.Proc) int {
		p.SetWeight(-5)
		if p.T.Proc.Weight != 1 {
			p.Exit(1)
		}
		return 0
	})
}
