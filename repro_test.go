package repro_test

import (
	"strings"
	"testing"

	"repro"
)

// TestFacadeQuickstart is the README example, verified.
func TestFacadeQuickstart(t *testing.T) {
	reg := repro.NewRegistry()
	reg.Register("hello", func(p *repro.GuestProc) int {
		p.Printf("the time is %d\n", p.Time())
		return 0
	})
	run := func(hostSeed uint64, prof *repro.MachineProfile) string {
		img := repro.MinimalImage()
		img.AddFile("/bin/hello", 0o755, repro.MakeExe("hello", nil))
		c := repro.New(repro.Config{Image: img, Profile: prof, HostSeed: hostSeed, Epoch: 1_700_000_000})
		res := c.Run(reg, "/bin/hello", []string{"hello"}, nil)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		return res.Stdout
	}
	a := run(42, repro.CloudLabC220G5())
	b := run(1<<60, repro.PortabilityBroadwell())
	if a != b {
		t.Errorf("facade runs differ: %q vs %q", a, b)
	}
	if !strings.Contains(a, "744847200") {
		t.Errorf("logical time missing: %q", a)
	}
}

// buildConfig is a one-package source tree for dpkg-buildpackage.
func buildConfig() repro.Config {
	img := repro.ToolchainImage()
	img.AddDir("/build/p-1", 0o755)
	img.AddDir("/build/p-1/debian", 0o755)
	img.AddDir("/build/p-1/src", 0o755)
	img.AddFile("/build/p-1/debian/control", 0o644, []byte("Package: p\nVersion: 1\n"))
	img.AddFile("/build/p-1/debian/rules", 0o755, []byte("weight 1\nstep make -j1\nstep pack\n"))
	img.AddFile("/build/p-1/Makefile", 0o644, []byte("compiler=cc\nsrcdir=src\nbuilddir=build\noutput=build/prog\n"))
	img.AddFile("/build/p-1/src/u.c", 0o644, []byte("@embed-timestamp@\nint main(void){return 0;}\n"))
	return repro.Config{Image: img, HostSeed: 3, Epoch: 1_600_000_000, WorkingDir: "/build/p-1"}
}

func toolchain() *repro.Registry {
	reg := repro.NewRegistry()
	repro.RegisterToolchain(reg)
	return reg
}

// build runs dpkg-buildpackage in cfg; env extends the build environment.
func build(cfg repro.Config, env ...string) *repro.Result {
	return repro.New(cfg).Run(toolchain(), "/bin/dpkg-buildpackage", []string{"dpkg-buildpackage", "-b"},
		append([]string{"PATH=/bin", "USER=root", "HOME=/root"}, env...))
}

func TestFacadeToolchainBuild(t *testing.T) {
	res := build(buildConfig())
	if res.Err != nil || res.ExitCode != 0 {
		t.Fatalf("build failed: err=%v code=%d stderr=%s", res.Err, res.ExitCode, res.Stderr)
	}
	if _, ok := res.FS.Entries["/build/out/p_1_amd64.deb"]; !ok {
		t.Errorf("no .deb in output tree")
	}
}

// TestFacadeCheckpointResume is crash recovery through the facade alone: a
// checkpointed build crashed halfway resumes from its last seal and finishes
// bitwise identical to the uninterrupted build.
func TestFacadeCheckpointResume(t *testing.T) {
	const ckpt = "DETTRACE_CHECKPOINT=1"
	ref := build(buildConfig(), ckpt)
	if ref.Err != nil || ref.ExitCode != 0 {
		t.Fatalf("reference build failed: err=%v code=%d stderr=%s", ref.Err, ref.ExitCode, ref.Stderr)
	}

	cfg := buildConfig()
	var last *repro.Checkpoint
	cfg.FaultInjectCrash = ref.Actions / 2
	cfg.CheckpointSink = func(cp *repro.Checkpoint) { last = cp }
	if crashed := build(cfg, ckpt); crashed.Err == nil {
		t.Fatal("the injected crash did not fire")
	}
	if last == nil || last.Ordinal() <= 0 {
		t.Fatalf("no checkpoint sealed before the crash: %v", last)
	}

	cfg.FaultInjectCrash, cfg.CheckpointSink = 0, nil
	res, err := repro.Resume(last, toolchain(), cfg)
	if err != nil {
		t.Fatalf("resume from checkpoint %d: %v", last.Ordinal(), err)
	}
	if res.Err != nil || res.ExitCode != ref.ExitCode || res.Stdout != ref.Stdout ||
		repro.HashImage(res.FS) != repro.HashImage(ref.FS) {
		t.Fatalf("resumed build differs from the uninterrupted one: err=%v code=%d stdout=%q",
			res.Err, res.ExitCode, res.Stdout)
	}
}

func TestFacadeUnsupportedDetection(t *testing.T) {
	reg := repro.NewRegistry()
	reg.Register("netted", func(p *repro.GuestProc) int {
		p.Socket()
		return 0
	})
	img := repro.MinimalImage()
	img.AddFile("/bin/netted", 0o755, repro.MakeExe("netted", nil))
	c := repro.New(repro.Config{Image: img, HostSeed: 1})
	res := c.Run(reg, "/bin/netted", []string{"netted"}, nil)
	if op, ok := res.Unsupported(); !ok || op != "socket" {
		t.Errorf("Unsupported() = %q, %v", op, ok)
	}
}

func TestFacadeImageHelpers(t *testing.T) {
	a := repro.NewImage()
	a.AddFile("/x", 0o644, []byte("1"))
	b := repro.NewImage()
	b.AddFile("/x", 0o644, []byte("2"))
	if repro.HashImage(a) == repro.HashImage(b) {
		t.Errorf("hashes of different trees coincide")
	}
	diffs := repro.CompareImages(a, b)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "/x") {
		t.Errorf("CompareImages = %v", diffs)
	}
}
