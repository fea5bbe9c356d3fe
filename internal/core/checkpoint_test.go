package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// The crash-consistency contract (DESIGN.md §4d): a run killed at any traced
// stop and resumed from its last checkpoint produces bitwise-identical
// output, flight-recorder ring and rolled-up metrics vs the uninterrupted
// run. These tests drive a staged exec-chain workload — execs are the
// quiescent cut points checkpoints seal at — through crash injection at
// every sampled action index.

// chainStage builds stage n of a staged workload: journal some entropy, churn
// files and inodes, fork a helper on even stages, then exec the next stage.
// Each exec happens with one process, one thread and only console fds open —
// a quiescent traced stop, so it is checkpoint-eligible.
func chainStage(n int) guest.Program {
	return func(p *guest.Proc) int {
		p.Printf("stage%d pid=%d t=%d\n", n, p.Getpid(), p.Time())
		buf := make([]byte, 8)
		p.GetRandom(buf)
		p.AppendFile("/tmp/journal", []byte(fmt.Sprintf("s%d:%x\n", n, buf)), 0o644)
		for i := 0; i < 4; i++ {
			f := fmt.Sprintf("/tmp/s%d_%d", n, i)
			p.WriteFile(f, []byte{byte(n), byte(i)}, 0o644)
			st, _ := p.Stat(f)
			p.Printf("%d:%d ", st.Ino, st.Mtime)
		}
		if n%2 == 0 {
			p.Fork(func(c *guest.Proc) int {
				c.Compute(500)
				c.WriteFile(fmt.Sprintf("/tmp/child%d", n), []byte{byte(n)}, 0o644)
				return 0
			})
			p.Wait()
		} else {
			// Odd stages run a short threaded phase (futex join, §5.7), so
			// the sweep crosses live workspace forks and merges: a crash
			// mid-phase must resume — from the previous exec's quiescent
			// seal — into a kernel that still runs workspaces, or the
			// replayed phase's physical clock diverges from the reference.
			const wordDone = 0x40
			for i := 0; i < 2; i++ {
				idx := i
				p.CloneThread(func(w *guest.Proc) int {
					w.Compute(800)
					w.WriteFile(fmt.Sprintf("/tmp/t%d_%d", n, idx), []byte{byte(n), byte(idx)}, 0o644)
					w.Add(wordDone, 1)
					w.FutexWake(wordDone, 8)
					return 0
				})
			}
			for p.Load(wordDone) < 2 {
				p.FutexWait(wordDone, p.Load(wordDone))
			}
		}
		p.Compute(1000)
		if n == lastStage {
			p.Printf("done t=%d\n", p.Time())
			return 7
		}
		next := fmt.Sprintf("/bin/stage%d", n+1)
		argv := []string{fmt.Sprintf("stage%d", n+1), "ride"}
		env := append(p.Environ(), fmt.Sprintf("STAGE=%d", n+1))
		if err := p.Exec(next, argv, env); err != abi.OK {
			p.Eprintf("exec %s: %s\n", next, err)
			return 1
		}
		return 127
	}
}

const lastStage = 3

func chainRegistry() *guest.Registry {
	reg := guest.NewRegistry()
	for n := 0; n <= lastStage; n++ {
		reg.Register(fmt.Sprintf("stage%d", n), chainStage(n))
	}
	return reg
}

// chainConfig builds the chain workload's config on host h; callers layer
// fault/checkpoint knobs on top before running.
func chainConfig(h host) core.Config {
	img := baseimg.Minimal()
	for n := 0; n <= lastStage; n++ {
		name := fmt.Sprintf("stage%d", n)
		img.AddFile("/bin/"+name, 0o755, guest.MakeExe(name, nil))
	}
	return core.Config{
		Image:    img,
		Profile:  h.profile,
		HostSeed: h.seed,
		Epoch:    h.epoch,
		NumCPU:   h.numCPU,
		Deadline: 3_600_000_000_000,
	}
}

func runChain(cfg core.Config) *core.Result {
	return core.New(cfg).Run(chainRegistry(),
		"/bin/stage0", []string{"stage0"}, []string{"PATH=/bin"})
}

// discardSink turns checkpoints on without keeping the seals. Checkpoint
// markers are mechanism-level ring events (like the template path's COW
// breaks), so full-ring comparisons need both sides sealing at the same
// stops — references for crash/resume comparisons run with this sink.
func discardSink(cfg core.Config) core.Config {
	cfg.CheckpointSink = func(*core.Checkpoint) {}
	return cfg
}

func refChain(t *testing.T, h host) *core.Result {
	t.Helper()
	res := runChain(discardSink(chainConfig(h)))
	if res.Err != nil {
		t.Fatalf("reference run: %v", res.Err)
	}
	return res
}

// bitwise folds everything the crash-consistency contract covers into one
// comparable string: observable output, final filesystem, the flight-recorder
// ring bytes, the rolled-up metrics, and the deterministic run measures.
// Spans/SetupNs/Forked/Resumed are benchmarking metadata, excluded on purpose.
func bitwise(t *testing.T, r *core.Result) string {
	t.Helper()
	var metrics strings.Builder
	if err := r.Obs.WriteProm(&metrics); err != nil {
		t.Fatalf("gather metrics: %v", err)
	}
	return fmt.Sprintf("exit=%d err=%v|%s|%s|%s|ring=%x|%s|wall=%d actions=%d",
		r.ExitCode, r.Err, r.Stdout, r.Stderr,
		hashdeep.HashSubtree(r.FS, "/").Total(),
		r.Trace.MarshalBinary(), metrics.String(), r.WallTime, r.Actions)
}

// bitwiseNoRing is bitwise minus the recorder ring, for comparing runs whose
// checkpoint mechanism configs differ (and whose rings therefore legitimately
// differ by mechanism-level marker events).
func bitwiseNoRing(t *testing.T, r *core.Result) string {
	t.Helper()
	var metrics strings.Builder
	if err := r.Obs.WriteProm(&metrics); err != nil {
		t.Fatalf("gather metrics: %v", err)
	}
	return fmt.Sprintf("exit=%d err=%v|%s|%s|%s|%s|wall=%d actions=%d",
		r.ExitCode, r.Err, r.Stdout, r.Stderr,
		hashdeep.HashSubtree(r.FS, "/").Total(),
		metrics.String(), r.WallTime, r.Actions)
}

// TestCheckpointSinkInvisible pins the mechanism half of the contract:
// attaching a checkpoint sink must not perturb anything the guest (or the
// rolled-up metrics) can observe. The flight-recorder ring is the one
// legitimate difference — it gains mechanism-level KindCheckpoint markers,
// which the diagnoser skips — so the ring is compared marker-filtered.
func TestCheckpointSinkInvisible(t *testing.T) {
	plain := runChain(chainConfig(hostA))
	if plain.Err != nil {
		t.Fatalf("run: %v", plain.Err)
	}
	var seals []*core.Checkpoint
	cfg := chainConfig(hostA)
	cfg.CheckpointSink = func(cp *core.Checkpoint) { seals = append(seals, cp) }
	sealed := runChain(cfg)
	if sealed.Err != nil {
		t.Fatalf("sealed run: %v", sealed.Err)
	}
	if bitwiseNoRing(t, plain) != bitwiseNoRing(t, sealed) {
		t.Errorf("checkpoint sink perturbed the run")
	}
	filter := func(evs []obs.Event) []obs.Event {
		out := evs[:0:0]
		for _, e := range evs {
			if e.Kind != obs.KindCheckpoint {
				out = append(out, e)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(plain.Events), filter(sealed.Events)) {
		t.Errorf("sink changed non-checkpoint ring events")
	}
	// Boot exec + three stage execs = four quiescent stops.
	if len(seals) != lastStage+1 {
		t.Fatalf("seals = %d, want %d", len(seals), lastStage+1)
	}
	for i, cp := range seals {
		if cp.Ordinal() != i+1 {
			t.Errorf("seal %d ordinal = %d", i, cp.Ordinal())
		}
		if !cp.Valid() {
			t.Errorf("seal %d failed validation", i)
		}
		if i > 0 && cp.Actions() <= seals[i-1].Actions() {
			t.Errorf("seal actions not increasing: %d then %d",
				seals[i-1].Actions(), cp.Actions())
		}
	}
}

// crashThenResume runs the chain with a crash injected at action n, then
// resumes from the latest checkpoint. Returns the resumed result and the
// checkpoint it recovered from; fails the test if the crash didn't fire.
func crashThenResume(t *testing.T, h host, n int64) (*core.Result, *core.Checkpoint) {
	t.Helper()
	var last *core.Checkpoint
	cfg := chainConfig(h)
	cfg.FaultInjectCrash = n
	cfg.CheckpointSink = func(cp *core.Checkpoint) { last = cp }
	crashed := runChain(cfg)
	if !errors.Is(crashed.Err, kernel.ErrInjectedCrash) {
		t.Fatalf("crash at %d did not fire: err=%v", n, crashed.Err)
	}
	if last == nil {
		t.Fatalf("crash at %d left no checkpoint", n)
	}
	rcfg := chainConfig(h)
	rcfg.CheckpointSink = func(*core.Checkpoint) {}
	res, err := core.Resume(last, chainRegistry(), rcfg)
	if err != nil {
		t.Fatalf("resume from seal %d (action %d): %v", last.Ordinal(), last.Actions(), err)
	}
	return res, last
}

// TestCrashResumeBitwiseEqual is the contract's core case: kill mid-run,
// resume, compare everything.
func TestCrashResumeBitwiseEqual(t *testing.T) {
	ref := refChain(t, hostA)
	res, cp := crashThenResume(t, hostA, ref.Actions/2)
	if !res.Resumed {
		t.Errorf("result not marked Resumed")
	}
	if got, want := bitwise(t, res), bitwise(t, ref); got != want {
		t.Errorf("resumed != uninterrupted\n got: %.300s\nwant: %.300s", got, want)
	}
	// Recovery must beat replay: the resumed run re-executes only the
	// virtual work after the seal.
	if redone := res.WallTime - cp.VirtualNow(); redone >= ref.WallTime {
		t.Errorf("recovery re-executed %d ns >= full run %d ns", redone, ref.WallTime)
	}
}

// TestCrashAtEveryEventSweep is the property-style sweep: for sampled crash
// points across the whole run (always including the edges), resumed must be
// bitwise identical to uninterrupted. Points past the end simply never fire.
func TestCrashAtEveryEventSweep(t *testing.T) {
	ref := refChain(t, hostA)
	want := bitwise(t, ref)
	stride := ref.Actions / 23
	if stride < 1 {
		stride = 1
	}
	// The run loop's crash check sees action counts 0..Actions-1 with work
	// still pending, so Actions-1 is the last index that fires; Actions and
	// beyond never do.
	points := []int64{1, 2, ref.Actions - 1, ref.Actions, ref.Actions + 50}
	for n := stride; n < ref.Actions; n += stride {
		points = append(points, n)
	}
	for _, n := range points {
		if n < 1 {
			continue
		}
		if n >= ref.Actions {
			// At/beyond end-of-run: the fault never fires, the run completes.
			cfg := discardSink(chainConfig(hostA))
			cfg.FaultInjectCrash = n
			res := runChain(cfg)
			if res.Err != nil {
				t.Fatalf("crash at %d (past end) fired: %v", n, res.Err)
			}
			if bitwise(t, res) != want {
				t.Errorf("crash knob past end changed output (n=%d)", n)
			}
			continue
		}
		res, _ := crashThenResume(t, hostA, n)
		if got := bitwise(t, res); got != want {
			t.Errorf("crash at %d: resumed != uninterrupted\n got: %.300s\nwant: %.300s",
				n, got, want)
		}
	}
}

// TestCrashResumeAcrossHosts: recovery preserves host-independence — a run
// crashed and resumed on host B still matches host A's uninterrupted run.
func TestCrashResumeAcrossHosts(t *testing.T) {
	refA := refChain(t, hostA)
	refB := refChain(t, hostB)
	// The full bitwise string includes profile-dependent cost metrics, so
	// cross-host comparison uses the guest-observable fingerprint.
	obsOnly := func(r *core.Result) string {
		return fmt.Sprintf("%d|%s|%s|%s", r.ExitCode, r.Stdout, r.Stderr,
			hashdeep.HashSubtree(r.FS, "/").Total())
	}
	if obsOnly(refA) != obsOnly(refB) {
		t.Fatalf("hosts diverge before any fault")
	}
	res, _ := crashThenResume(t, hostB, refB.Actions/3)
	if obsOnly(res) != obsOnly(refA) {
		t.Errorf("crash+resume on host B diverged from host A")
	}
	if bitwise(t, res) != bitwise(t, refB) {
		t.Errorf("crash+resume on host B diverged from host B's own full run")
	}
}

// TestCheckpointCorruptionRejected: an injected corrupt seal must fail
// validation, and recovery must degrade to a cold replay that still matches.
func TestCheckpointCorruptionRejected(t *testing.T) {
	ref := refChain(t, hostA)
	var seals []*core.Checkpoint
	cfg := chainConfig(hostA)
	cfg.FaultInjectCrash = ref.Actions / 2
	cfg.FaultCorruptCheckpoint = 2
	cfg.CheckpointSink = func(cp *core.Checkpoint) { seals = append(seals, cp) }
	crashed := runChain(cfg)
	if !errors.Is(crashed.Err, kernel.ErrInjectedCrash) {
		t.Fatalf("crash did not fire: %v", crashed.Err)
	}
	if len(seals) < 2 {
		t.Fatalf("want ≥2 seals, got %d", len(seals))
	}
	if seals[1].Valid() {
		t.Fatalf("seal 2 should be corrupt")
	}
	if _, err := core.Resume(seals[1], chainRegistry(), chainConfig(hostA)); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Errorf("resume from corrupt seal: err=%v, want ErrCheckpointCorrupt", err)
	}
	// Older seals are unaffected; recovery can fall back to seal 1 …
	res, err := core.Resume(seals[0], chainRegistry(), discardSink(chainConfig(hostA)))
	if err != nil {
		t.Fatalf("resume from seal 1: %v", err)
	}
	if bitwise(t, res) != bitwise(t, ref) {
		t.Errorf("fallback resume diverged")
	}
	// … or degrade all the way to a cold replay.
	cold := runChain(discardSink(chainConfig(hostA)))
	if bitwise(t, cold) != bitwise(t, ref) {
		t.Errorf("cold replay diverged")
	}
}

// TestCheckpointConfigMismatchRejected: a checkpoint only resumes under a
// behaviourally identical config (crash knob excepted).
func TestCheckpointConfigMismatchRejected(t *testing.T) {
	var last *core.Checkpoint
	cfg := chainConfig(hostA)
	cfg.CheckpointSink = func(cp *core.Checkpoint) { last = cp }
	if res := runChain(cfg); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	bad := chainConfig(hostA)
	bad.PRNGSeed = 0xDEAD
	if _, err := core.Resume(last, chainRegistry(), bad); !errors.Is(err, core.ErrCheckpointMismatch) {
		t.Errorf("seed mismatch: err=%v, want ErrCheckpointMismatch", err)
	}
	// Mechanism knobs may differ: a sinkless recovery of a sinkful run is
	// legal (and still bitwise-faithful, covered by the sweep above).
	if _, err := core.Resume(last, chainRegistry(), chainConfig(hostA)); err != nil {
		t.Errorf("same-config resume rejected: %v", err)
	}

	// Observability may only be turned off across a resume. A ring-carrying
	// seal resumes with the recorder off and still equals the reference in
	// everything but the ring ...
	quiet := chainConfig(hostA)
	quiet.DisableObservability = true
	res, err := core.Resume(last, chainRegistry(), quiet)
	if err != nil {
		t.Fatalf("ring-carrying seal, recorder off: %v", err)
	}
	if res.Trace != nil {
		t.Errorf("recorder off, yet the resumed result carries a ring")
	}
	if bitwiseNoRing(t, res) != bitwiseNoRing(t, refChain(t, hostA)) {
		t.Errorf("ring-carrying seal resumed with the recorder off diverged from the reference")
	}
	// ... but a seal taken with the recorder off holds no ring prefix, so a
	// recording config must not resume it into a ring missing its head.
	var ringless *core.Checkpoint
	quiet.CheckpointSink = func(cp *core.Checkpoint) { ringless = cp }
	if res := runChain(quiet); res.Err != nil {
		t.Fatalf("ringless run: %v", res.Err)
	}
	if _, err := core.Resume(ringless, chainRegistry(), chainConfig(hostA)); !errors.Is(err, core.ErrCheckpointMismatch) {
		t.Errorf("ringless seal under a recording config: err=%v, want ErrCheckpointMismatch", err)
	}
	if _, err := core.Resume(ringless, chainRegistry(), discardSink(quiet)); err != nil {
		t.Errorf("ringless seal under its own config rejected: %v", err)
	}
}

// TestResumeChainsCheckpoints: a resumed run keeps sealing; crashing *again*
// after recovery and resuming from the new seal still converges to the
// uninterrupted result (double-fault recovery).
func TestResumeChainsCheckpoints(t *testing.T) {
	ref := refChain(t, hostA)
	var last *core.Checkpoint
	cfg := chainConfig(hostA)
	cfg.FaultInjectCrash = ref.Actions / 3
	cfg.CheckpointSink = func(cp *core.Checkpoint) { last = cp }
	crashed := runChain(cfg)
	if !errors.Is(crashed.Err, kernel.ErrInjectedCrash) {
		t.Fatalf("first crash did not fire: %v", crashed.Err)
	}
	first := last
	// Resume, but crash again later in the run.
	again := chainConfig(hostA)
	again.FaultInjectCrash = 2 * ref.Actions / 3
	again.CheckpointSink = func(cp *core.Checkpoint) { last = cp }
	mid, err := core.Resume(first, chainRegistry(), again)
	if err != nil {
		t.Fatalf("first resume: %v", err)
	}
	if !errors.Is(mid.Err, kernel.ErrInjectedCrash) {
		t.Fatalf("second crash did not fire: %v", mid.Err)
	}
	if last == first {
		t.Fatalf("resumed run sealed no further checkpoints")
	}
	if last.Ordinal() <= first.Ordinal() {
		t.Errorf("ordinals not continued: %d after %d", last.Ordinal(), first.Ordinal())
	}
	final, err := core.Resume(last, chainRegistry(), discardSink(chainConfig(hostA)))
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if bitwise(t, final) != bitwise(t, ref) {
		t.Errorf("double-fault recovery diverged from uninterrupted run")
	}
}
