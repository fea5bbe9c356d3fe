package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/machine"
)

// templateWorkload touches every virtualization the fork must preserve:
// inode numbers (fresh and recycled), virtual mtimes, getdents order, time,
// pids, container randomness, directory sizes.
func templateWorkload(p *guest.Proc) int {
	p.Printf("pid=%d t=%d\n", p.Getpid(), p.Time())
	for i := 0; i < 20; i++ {
		p.WriteFile("/tmp/f", []byte{byte(i)}, 0o644)
		st, _ := p.Stat("/tmp/f")
		p.Printf("%d:%d ", st.Ino, st.Mtime.Nanos())
	}
	p.Unlink("/tmp/f")
	p.WriteFile("/tmp/g", []byte("recycle-check"), 0o644)
	if st, err := p.Stat("/tmp/g"); err == 0 {
		p.Printf("\ng=%d\n", st.Ino)
	}
	ents, _ := p.ReadDir("/bin")
	for _, e := range ents {
		p.Printf("%s=%d ", e.Name, e.Ino)
	}
	if st, err := p.Stat("/bin"); err == 0 {
		p.Printf("\nbinsize=%d\n", st.Size)
	}
	var rnd [16]byte
	p.GetRandom(rnd[:])
	p.Printf("rnd=%x\n", rnd)
	p.Fork(func(c *guest.Proc) int {
		c.Printf("child pid=%d\n", c.Getpid())
		c.WriteFile("/build/out", []byte("artifact"), 0o644)
		return 0
	})
	p.Wait()
	return 0
}

// fullPrint fingerprints everything reproducibility promises: streams, exit
// status, and the entire final filesystem.
func fullPrint(r *core.Result) string {
	return r.Stdout + "|" + r.Stderr + "|" + hashdeep.HashSubtree(r.FS, "/").Total()
}

func runFromTemplate(t *testing.T, tp *core.Template, h host, prog guest.Program) *core.Result {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	c := tp.NewContainer(core.HostRun{Seed: h.seed, Epoch: h.epoch, NumCPU: h.numCPU})
	return c.Run(reg, "/bin/main", []string{"main"}, []string{"PATH=/bin"})
}

// The Template contract: a container forked from a shared template is
// bitwise identical to a core.New one, on any host, for any seed — its
// output, its virtual cost and its whole flight-recorder ring. The guest
// overwrites a file from its image, so both runs break copy-on-write data.
func TestTemplateForkEqualsCold(t *testing.T) {
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	base := core.Config{Image: img, Deadline: 3_600_000_000_000, PRNGSeed: 7}
	overwrite := func(p *guest.Proc) int {
		p.WriteFile("/etc/hostname", []byte("overwritten\n"), 0o644)
		return templateWorkload(p)
	}

	for _, h := range []host{hostA, hostB} {
		cfg := base
		cfg.Profile = h.profile
		tp := core.NewTemplate(cfg)
		warm := runFromTemplate(t, tp, h, overwrite)
		if !warm.Forked {
			t.Fatalf("template container did not take the fork path")
		}
		cold := runDT(t, h, core.Config{Deadline: base.Deadline, PRNGSeed: base.PRNGSeed}, overwrite)
		if cold.Forked {
			t.Fatalf("core.New container reports a shared template")
		}
		if warm.Err != nil || cold.Err != nil {
			t.Fatalf("runs failed: %v / %v", warm.Err, cold.Err)
		}
		if fullPrint(warm) != fullPrint(cold) {
			t.Errorf("%s: forked container diverged from cold-built\nwarm stdout:\n%s\ncold stdout:\n%s",
				h.profile.Name, warm.Stdout, cold.Stdout)
		}
		if warm.WallTime != cold.WallTime || warm.Stats.Syscalls != cold.Stats.Syscalls {
			t.Errorf("%s: virtual cost diverged: wall %d vs %d, syscalls %d vs %d",
				h.profile.Name, warm.WallTime, cold.WallTime, warm.Stats.Syscalls, cold.Stats.Syscalls)
		}
		if !bytes.Equal(warm.Trace.MarshalBinary(), cold.Trace.MarshalBinary()) {
			t.Errorf("%s: flight recorder diverged: %d vs %d events",
				h.profile.Name, warm.Trace.Total(), cold.Trace.Total())
		}
	}
}

// One template, many sequential and concurrent runs: no state may leak
// between them, and every identical (seed, epoch) run must be identical.
func TestTemplateStateLeakFreedom(t *testing.T) {
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	tp := core.NewTemplate(core.Config{Image: img, Deadline: 3_600_000_000_000, Profile: hostA.profile})

	first := runFromTemplate(t, tp, hostA, templateWorkload)
	second := runFromTemplate(t, tp, hostA, templateWorkload)
	if fullPrint(first) != fullPrint(second) {
		t.Fatalf("back-to-back runs from one template diverged")
	}
	coldRef := runDT(t, hostA, core.Config{Deadline: 3_600_000_000_000}, templateWorkload)
	if fullPrint(second) != fullPrint(coldRef) {
		t.Fatalf("a reused template drifted from cold-built behaviour")
	}

	const workers = 8
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reg := guest.NewRegistry()
			reg.Register("main", templateWorkload)
			c := tp.NewContainer(core.HostRun{Seed: hostA.seed, Epoch: hostA.epoch})
			outs[i] = fullPrint(c.Run(reg, "/bin/main", []string{"main"}, []string{"PATH=/bin"}))
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if outs[i] != outs[0] {
			t.Fatalf("concurrent template run %d diverged", i)
		}
	}
}

// configHashExcluded lists every core.Config field ConfigHash ignores, with
// the reason; a row of Off gives its reason in the mechanism table. Any other
// field must move the hash when changed.
var configHashExcluded = map[string]string{
	"Image":                  "content is keyed separately via Image.Hash, so one config hash serves many images",
	"HostSeed":               "[host] physical-run entropy: varies per run, must not reach output",
	"Epoch":                  "[host] boot wall-clock: varies per run, must not reach output",
	"NumCPU":                 "[host] core count: varies per run, must not reach output",
	"RingEvents":             "ring capacity bounds retention, never behaviour",
	"FaultCorruptCheckpoint": "checkpoints observe the run; the guest never sees its seals",
	"CheckpointSink":         "sealing is read-only; output is identical with a sink attached",
	"HaltAtLTime":            "a halted replay is a strict prefix and never enters a cache",
	"HaltAtAction":           "a halted replay is a strict prefix and never enters a cache",
	"Debug":                  "an observer",
}

// ConfigHash must split every behaviour-relevant knob and ignore the excluded
// ones, so prepared state can never be reused across incompatible configs.
// The walk covers core.Config by reflection: a new field fails here until it
// is either hashed or excluded with a reason. Off is walked one row at a
// time, and a Disable* alias must hash like the row it spells.
func TestConfigHashGuard(t *testing.T) {
	img := baseimg.Minimal()
	base := core.Config{Image: img, PRNGSeed: 1}
	h0 := core.ConfigHash(base)

	seen := map[uint64]string{h0: "the base config"}
	for m := range core.NumMechanisms {
		v := base
		v.Off = core.Off(m)
		h := core.ConfigHash(v)
		if m.Unhashed() != "" {
			if h != h0 {
				t.Errorf("unhashed row %s moved the config hash — prepared state would thrash", m)
			}
			continue
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("row %s hashes like %s: ConfigHash must fold every hashed row", m, prev)
		}
		seen[h] = "row " + m.String()
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Off" {
			continue
		}
		v := base
		f := reflect.ValueOf(&v).Elem().Field(i)
		switch x := f.Addr().Interface().(type) {
		case *bool:
			*x = true
		case *int:
			*x = 7
		case *int64:
			*x = 7
		case *uint64:
			*x = 7
		case *string:
			*x = "/elsewhere"
		case *[]byte:
			*x = []byte{1, 2, 3}
		case **fs.Image:
			*x = baseimg.Minimal()
			(*x).AddFile("/etc/extra", 0o644, []byte("new"))
		case **machine.Profile:
			*x = machine.PortabilityBroadwell()
		case *map[string]core.Download:
			*x = map[string]core.Download{"u": {Data: []byte("x"), SHA256: "aa"}}
		case *func(*core.Checkpoint):
			*x = func(*core.Checkpoint) {}
		case *func(string, ...any):
			*x = func(string, ...any) {}
		default:
			t.Fatalf("field %s: the walk cannot perturb a %s — teach it", name, f.Type())
		}
		h := core.ConfigHash(v)
		if strings.HasPrefix(name, "Disable") {
			if !strings.HasPrefix(seen[h], "row ") {
				t.Errorf("alias %s hashes like no row of Off", name)
			}
			continue
		}
		if _, excluded := configHashExcluded[name]; excluded {
			if h != h0 {
				t.Errorf("excluded field %s moved the config hash — prepared state would thrash", name)
			}
			continue
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("field %s hashes like %s: hash it in ConfigHash, or exclude it with a reason", name, prev)
		}
		seen[h] = "field " + name
	}
	for name := range configHashExcluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("configHashExcluded names %s, which core.Config no longer has", name)
		}
	}
}
