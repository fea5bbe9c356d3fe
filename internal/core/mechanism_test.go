package core_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/guest"
)

// Config switches rows off through Off alone: its one Disable* field is the
// older incremental alias, which hashes like its row (TestConfigHashPinned).
// Every row names its paper section and one contract: a performance
// mechanism's moves, or a determinization rule's directive family, which the
// package universe must actually draw.
func TestMechanismTableCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(core.Config{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; strings.HasPrefix(name, "Disable") && name != "DisableIncremental" {
			t.Errorf("core.Config.%s switches a mechanism outside Off", name)
		}
	}
	families := map[string]bool{}
	for _, d := range slices.Concat(debpkg.DirectiveUniverse, debpkg.PortDirectiveUniverse) {
		family, _, _ := strings.Cut(d, ":")
		families[family] = true
	}
	for m := range core.NumMechanisms {
		switch {
		case m.String() == "" || m.Section() == "":
			t.Errorf("row %d has name %q and section %q", m, m, m.Section())
		case m.Breaks() != "" && (m.Moves() != core.MovesNothing || !families[m.Breaks()]):
			t.Errorf("row %s breaks %q, which is no debpkg directive family, and moves %d", m, m.Breaks(), m.Moves())
		}
	}
}

// ParseMechanisms reads every row by its name, and an unknown or empty name
// is an error that lists the rows.
func TestParseMechanisms(t *testing.T) {
	for m := range core.NumMechanisms {
		if got, err := core.ParseMechanisms(m.String()); err != nil || got != core.Off(m) {
			t.Errorf("ParseMechanisms(%q) = %#x, %v; want %#x", m, got, err, core.Off(m))
		}
	}
	cases := []struct {
		list string
		want core.Mechanisms
		err  bool
	}{
		{"", 0, false},
		{"seccomp,vdso", core.Off(core.Seccomp, core.Vdso), false},
		{"nosuch", 0, true},
		{"seccomp,,vdso", 0, true},
		{"seccomp,", 0, true},
	}
	for _, tc := range cases {
		got, err := core.ParseMechanisms(tc.list)
		if got != tc.want || (err != nil) != tc.err {
			t.Errorf("ParseMechanisms(%q) = %#x, %v; want %#x, error %v", tc.list, got, err, tc.want, tc.err)
		}
		if err == nil {
			continue
		}
		for m := range core.NumMechanisms {
			if !strings.Contains(err.Error(), m.String()) {
				t.Errorf("ParseMechanisms(%q) error %q does not list row %s", tc.list, err, m)
			}
		}
	}
}

// The paper's DetTrace switches exactly one row off: the syscall buffer.
func TestPaperDetTraceIsUnbuffered(t *testing.T) {
	if core.PaperDetTrace != core.Off(core.SyscallBuf) {
		t.Fatalf("PaperDetTrace switches %#x off, want only the syscall buffer", core.PaperDetTrace)
	}
}

// ConfigHash values are derivation keys, seal keys and attestation subjects,
// so the table must keep every one of them. These are the values the
// hand-listed ConfigHash produced before the table existed, for the zero
// config and for each row off alone, in table order: a reordered or
// re-flagged row fails here, not in a benchmark digest.
func TestConfigHashPinned(t *testing.T) {
	const zero = 0x59543c48818fbe3a
	want := [core.NumMechanisms]uint64{
		0x46f72bad202180bb, 0x198d81697f98ea9b, 0x017a6439b34fd87b, 0x44183727d13dca5b,
		0x4b99b952036a403b, 0xdc2667dba5ecba1b, 0xc73ed586a4ecb7fb, 0x006e016d1aa1b9db,
		0x409cb7532d533fbb, 0xe465e5092d58c99b, zero, zero,
	}
	if got := core.ConfigHash(core.Config{}); got != zero {
		t.Errorf("zero config hashes to %#016x, want %#016x", got, uint64(zero))
	}
	for m := range core.NumMechanisms {
		if got := core.ConfigHash(core.Config{Off: core.Off(m)}); got != want[m] {
			t.Errorf("%s off hashes to %#016x, want %#016x", m, got, want[m])
		}
	}
	if got := core.ConfigHash(core.Config{DisableIncremental: true}); got != want[core.Incremental] {
		t.Errorf("the incremental alias hashes to %#016x, want %#016x", got, want[core.Incremental])
	}
}

// witnesses maps each directive family a breaks row names to a program that
// prints what that family observes.
var witnesses = map[string]guest.Program{
	"timestamp-vdso": func(p *guest.Proc) int { p.Printf("years=%d", p.VdsoNow()/1e9/86400/365); return 0 },
	"cpuinfo":        func(p *guest.Proc) int { p.Printf("signature=%x", p.Cpuid(1).Leaf.EAX); return 0 },
	"dirsize": func(p *guest.Proc) int {
		for i := 0; i < 100; i++ {
			p.WriteFile("/tmp/f"+strings.Repeat("x", i%7)+string(rune('a'+i%26)), nil, 0o644)
		}
		st, _ := p.Stat("/tmp")
		p.Printf("size=%d", st.Size)
		return 0
	},
	"inode": func(p *guest.Proc) int {
		for _, n := range []string{"/tmp/a", "/tmp/b"} {
			p.WriteFile(n, nil, 0o644)
			st, _ := p.Stat(n)
			p.Printf("%d ", st.Ino)
		}
		return 0
	},
	"readdir": func(p *guest.Proc) int {
		for _, n := range []string{"epsilon", "alpha", "mu", "beta"} {
			p.WriteFile("/tmp/"+n, nil, 0o644)
		}
		ents, _ := p.ReadDir("/tmp")
		for _, e := range ents {
			p.Printf("%s ", e.Name)
		}
		return 0
	},
}

// The leak test: every determinization rule is necessary. For each breaks
// row, its family's witness prints the same bytes on two hosts with every row
// on, and different bytes with only that row off.
func TestBreaksRowsLeak(t *testing.T) {
	for m := range core.NumMechanisms {
		if m.Breaks() == "" {
			continue
		}
		t.Run(m.String(), func(t *testing.T) {
			prog, ok := witnesses[m.Breaks()]
			if !ok {
				t.Fatalf("no witness program for directive family %q", m.Breaks())
			}
			for _, off := range []bool{false, true} {
				var cfg core.Config
				if off {
					cfg.Off = core.Off(m)
				}
				a, b := runDT(t, hostA, cfg, prog), runDT(t, hostB, cfg, prog)
				if a.Err != nil || b.Err != nil || (a.Stdout != b.Stdout) != off {
					t.Errorf("off=%v: hostA %q, hostB %q (errors %v, %v); want divergence %v",
						off, a.Stdout, b.Stdout, a.Err, b.Err, off)
				}
			}
		})
	}
}
