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

// mechanismFields maps each core.Config field the mechanism table switches to
// its row, found by switching the row off on a zero config.
func mechanismFields(t *testing.T) map[string]core.Mechanism {
	t.Helper()
	rows := map[string]core.Mechanism{}
	for m := range core.NumMechanisms {
		var cfg core.Config
		core.Off(m).Apply(&cfg)
		v := reflect.ValueOf(cfg)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Bool && f.Bool() {
				rows[v.Type().Field(i).Name] = m
			}
		}
	}
	if len(rows) != int(core.NumMechanisms) {
		t.Fatalf("%d rows switch %d distinct Config bools, want one each", core.NumMechanisms, len(rows))
	}
	return rows
}

// Every Disable* switch on core.Config is one row of the mechanism table, and
// every row names its paper section and one contract: a performance
// mechanism's moves, or a determinization rule's directive family, which the
// package universe must actually draw.
func TestMechanismTableCoversConfig(t *testing.T) {
	rows := mechanismFields(t)
	typ := reflect.TypeOf(core.Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); strings.HasPrefix(f.Name, "Disable") && f.Type.Kind() == reflect.Bool {
			if _, ok := rows[f.Name]; !ok {
				t.Errorf("core.Config.%s has no row in the mechanism table", f.Name)
			}
		}
	}
	families := map[string]bool{}
	for _, d := range slices.Concat(debpkg.DirectiveUniverse, debpkg.PortDirectiveUniverse) {
		family, _, _ := strings.Cut(d, ":")
		families[family] = true
	}
	for name, m := range rows {
		switch {
		case !strings.HasPrefix(name, "Disable") || m.Section() == "":
			t.Errorf("row %s switches %s and names section %q", m, name, m.Section())
		case m.Breaks() != "" && (m.Moves() != core.MovesNothing || !families[m.Breaks()]):
			t.Errorf("row %s breaks %q, which is no debpkg directive family, and moves %d", m, m.Breaks(), m.Moves())
		}
	}
}

// The paper's DetTrace switches exactly one row off: the syscall buffer.
func TestPaperDetTraceIsUnbuffered(t *testing.T) {
	var cfg core.Config
	core.PaperDetTrace.Apply(&cfg)
	if want := (core.Config{DisableSyscallBuf: true}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("PaperDetTrace switches %+v, want only DisableSyscallBuf", cfg)
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
		var cfg core.Config
		core.Off(m).Apply(&cfg)
		if got := core.ConfigHash(cfg); got != want[m] {
			t.Errorf("%s off hashes to %#016x, want %#016x", m, got, want[m])
		}
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
					core.Off(m).Apply(&cfg)
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
