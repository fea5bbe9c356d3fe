package core_test

import (
	"reflect"
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

// The Template contract: a forked container's observable behaviour is
// bitwise identical to a cold-built one, on any host, for any seed.
func TestTemplateForkEqualsCold(t *testing.T) {
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	base := core.Config{Image: img, Deadline: 3_600_000_000_000, PRNGSeed: 7}

	for _, h := range []host{hostA, hostB} {
		cfg := base
		cfg.Profile = h.profile
		tp := core.NewTemplate(cfg)
		warm := runFromTemplate(t, tp, h, templateWorkload)
		if !warm.Forked {
			t.Fatalf("template container did not take the fork path")
		}
		cold := runDT(t, h, core.Config{Deadline: base.Deadline, PRNGSeed: base.PRNGSeed}, templateWorkload)
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
	}
}

// The DisableTemplateReuse ablation keeps the cold path alive: same
// template, same host, identical output, but no fork.
func TestTemplateDisableReuseAblation(t *testing.T) {
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	cfg := core.Config{Image: img, Deadline: 3_600_000_000_000, Profile: hostA.profile}

	warmTp := core.NewTemplate(cfg)
	warm := runFromTemplate(t, warmTp, hostA, templateWorkload)

	cold := cfg
	cold.DisableTemplateReuse = true
	coldTp := core.NewTemplate(cold)
	ablated := runFromTemplate(t, coldTp, hostA, templateWorkload)

	if !warm.Forked || ablated.Forked {
		t.Fatalf("fork flags wrong: warm=%v ablated=%v", warm.Forked, ablated.Forked)
	}
	if fullPrint(warm) != fullPrint(ablated) {
		t.Errorf("DisableTemplateReuse changed results — it may only change setup cost")
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
// the reason; a Disable* switch gives its reason in its mechanism row. Any
// other field must move the hash when changed.
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
// is either hashed or excluded with a reason.
func TestConfigHashGuard(t *testing.T) {
	img := baseimg.Minimal()
	base := core.Config{Image: img, PRNGSeed: 1}
	h0 := core.ConfigHash(base)

	seen := map[uint64]string{h0: "the base config"}
	rows := mechanismFields(t)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
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
		_, excluded := configHashExcluded[name]
		if m, ok := rows[name]; ok {
			excluded = m.Unhashed() != ""
		}
		if excluded {
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

	tp := core.NewTemplate(base)
	if !tp.CompatibleWith(base) {
		t.Errorf("template rejects its own config")
	}
	if tp.CompatibleWith(core.Config{Image: img, PRNGSeed: 1, DisableSeccomp: true}) {
		t.Errorf("template accepts an incompatible ablation config")
	}
	changed := baseimg.Minimal()
	changed.AddFile("/etc/extra", 0o644, []byte("new"))
	if tp.CompatibleWith(core.Config{Image: changed, PRNGSeed: 1}) {
		t.Errorf("template accepts a different image")
	}
}
