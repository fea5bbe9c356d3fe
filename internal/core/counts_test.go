package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/kernel"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/counts.golden from this tree")

// countsStage builds stage n of the counts workload. Stage 0 makes buffered
// calls (getpid, getcwd, fstat) and traced ones (stat, file writes), issues
// one syscall number beyond the dense per-syscall table, runs two
// file-writing threads and joins them (so workspaces fork and merge), then
// re-execs itself into stage 1: a quiescent traced stop, so it seals there.
func countsStage(n int) guest.Program {
	return func(p *guest.Proc) int {
		p.Printf("stage%d pid=%d cwd=", n, p.Getpid())
		cwd, _ := p.Getcwd()
		p.Printf("%s\n", cwd)
		p.WriteFile(fmt.Sprintf("/tmp/c%d", n), []byte{byte(n)}, 0o644)
		st, _ := p.Stat(fmt.Sprintf("/tmp/c%d", n))
		if fd, err := p.Open(fmt.Sprintf("/tmp/c%d", n), abi.ORdonly, 0); err == abi.OK {
			p.Fstat(fd)
			p.Close(fd)
		}
		p.Printf("ino=%d t=%d\n", st.Ino, p.Time())
		if n == 1 {
			return 3
		}
		sc := p.T.Syscall(&abi.Syscall{Num: abi.SysnoSlots + 7})
		p.Printf("oor=%v\n", sc.Err())
		const wordDone = 0x40
		for i := 0; i < 2; i++ {
			idx := i
			p.CloneThread(func(w *guest.Proc) int {
				w.Compute(800)
				w.WriteFile(fmt.Sprintf("/tmp/w%d", idx), []byte{byte(idx)}, 0o644)
				w.Add(wordDone, 1)
				w.FutexWake(wordDone, 8)
				return 0
			})
		}
		for p.Load(wordDone) < 2 {
			p.FutexWait(wordDone, p.Load(wordDone))
		}
		p.Compute(1000)
		if err := p.Exec("/bin/counts1", []string{"counts1"}, p.Environ()); err != abi.OK {
			p.Eprintf("exec: %s\n", err)
			return 1
		}
		return 127
	}
}

func countsRun(sink func(*core.Checkpoint)) (core.Config, *guest.Registry, *core.Result) {
	img := baseimg.Minimal()
	reg := guest.NewRegistry()
	for n := 0; n <= 1; n++ {
		name := fmt.Sprintf("counts%d", n)
		img.AddFile("/bin/"+name, 0o755, guest.MakeExe(name, nil))
		reg.Register(name, countsStage(n))
	}
	cfg := core.Config{
		Image: img, Profile: hostA.profile, HostSeed: hostA.seed, Epoch: hostA.epoch,
		Deadline: 3_600_000_000_000, CheckpointSink: sink,
	}
	res := core.New(cfg).Run(reg, "/bin/counts0", []string{"counts0"}, []string{"PATH=/bin"})
	return cfg, reg, res
}

// countsText renders what a run counted: its published metrics, the tracer
// counts and the Stats fields beside them.
func countsText(t *testing.T, r *core.Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "exit=%d err=%v\n-- metrics --\n", r.ExitCode, r.Err)
	if err := r.Obs.WriteProm(&b); err != nil {
		t.Fatalf("write metrics: %v", err)
	}
	fmt.Fprintf(&b, "-- tracer --\n%+v\n-- stats --\n%s", r.Tracer, statsText(r.Stats))
	return b.String()
}

func statsText(s kernel.Stats) string {
	return fmt.Sprintf("Syscalls=%d SyscallsRaw=%d Spawns=%d Execs=%d Instrs=%d\n"+
		"RdtscTrapped=%d CpuidTrapped=%d MemReads=%d MemWrites=%d\n"+
		"SchedRequests=%d BlockedReplays=%d ReadRetries=%d WriteRetries=%d\n"+
		"UrandomOpens=%d TimeCalls=%d SignalsSent=%d VdsoCalls=%d TracerBusy=%d\n"+
		"StopsPerSyscall=%v\n",
		s.Syscalls, s.SyscallsRaw, s.Spawns, s.Execs, s.Instrs,
		s.RdtscTrapped, s.CpuidTrapped, s.MemReads, s.MemWrites,
		s.SchedRequests, s.BlockedReplays, s.ReadRetries, s.WriteRetries,
		s.UrandomOpens, s.TimeCalls, s.SignalsSent, s.VdsoCalls, s.TracerBusy,
		s.StopsPerSyscall.Map())
}

// TestCountsGolden pins every count a run keeps, published and plain, to a
// golden recorded before the counts moved into the kernel's sealed state: an
// uninterrupted run and a run resumed from each of its seals must both
// match it byte for byte. Regenerate with -update-counts only when a count
// is meant to change.
func TestCountsGolden(t *testing.T) {
	var seals []*core.Checkpoint
	cfg, reg, res := countsRun(func(cp *core.Checkpoint) { seals = append(seals, cp) })
	if res.Err != nil || res.ExitCode != 3 {
		t.Fatalf("run: exit %d err %v, stderr %q", res.ExitCode, res.Err, res.Stderr)
	}
	got := countsText(t, res)
	path := filepath.Join("testdata", "counts.golden")
	if *updateCounts {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("uninterrupted run's counts differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
	if len(seals) == 0 {
		t.Fatal("the re-exec sealed no checkpoint")
	}
	// Each seal is resumed twice at once: both read the seal's counts.
	cfg.CheckpointSink = func(*core.Checkpoint) {}
	results := make([]*core.Result, 2*len(seals))
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = core.Resume(seals[i/2], reg, cfg)
		}()
	}
	wg.Wait()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("resume seal %d: %v", seals[i/2].Ordinal(), errs[i])
		}
		if got := countsText(t, r); got != string(want) {
			t.Errorf("run resumed from seal %d differs from the golden:\n got:\n%s\nwant:\n%s", seals[i/2].Ordinal(), got, want)
		}
	}
	for _, name := range []string{"workspace_forks", "workspace_merges", "tracer_buffered_calls", "tracer_stops"} {
		if res.Obs.Counter(name).Value() == 0 {
			t.Errorf("%s is 0: the workload no longer exercises it", name)
		}
	}
}
