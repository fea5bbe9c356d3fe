// Package mlsim models the §7.6 TensorFlow experiments: CPU-only training
// of the alexnet and cifar10 tutorial models with OpenMP-style thread
// parallelism inside one process.
//
// The irreproducibility signature is the training loss trace: every step
// samples its minibatch through OS randomness, so even fully serialized
// native runs log different losses (§6.1). Under DetTrace the trace is a
// pure function of the container seed.
//
// The performance signature is thread scheduling. With workspaces disabled
// DetTrace runs threads one at a time (§5.7), so against 16-way parallel
// native execution it loses the whole parallel speedup (≈12.3× on alexnet,
// ≈11.2× on cifar10) while costing only 1.12×/1.02× against serialized
// native execution. With copy-on-write thread workspaces (the default)
// compute bursts between sync points overlap in physical time, recovering
// most of the parallel speedup (≈5.0×/2.1× vs parallel native). What does
// not shrink is tracer-serialized syscall service: alexnet's 42 runtime
// calls per step are all sync points, so it stays dearer than cifar10 and
// its 4-thread speedup is capped near 2× by the tracer — the Fig. 6
// throttling, now visible per-thread-count. The logical clock stays
// token-serialized in both modes, so the loss trace is bit-identical.
package mlsim

import (
	"fmt"
	"strings"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// Model selects the tutorial workload.
type Model string

// The two §7.6 models.
const (
	Alexnet Model = "alexnet"
	Cifar10 Model = "cifar10"
)

// Models lists both.
var Models = []Model{Alexnet, Cifar10}

// modelShape carries the calibrated workload parameters.
type modelShape struct {
	steps       int   // training steps (actual, weighted)
	weight      int64 // events-per-event scale
	stepWork    int64 // ns of math per step (whole step, all threads)
	sysPerStep  int   // summary-writer and checkpoint-ish calls per step
	parallelEff int64 // percent of step work that parallelizes
}

func shapeOf(m Model) modelShape {
	switch m {
	case Alexnet:
		// Deep convolutions: long steps, relatively frequent summary and
		// prefetch calls.
		return modelShape{steps: 40, weight: 20, stepWork: 1_500_000_000, sysPerStep: 42, parallelEff: 97}
	default: // Cifar10
		// Small model: shorter steps, far fewer runtime calls per unit work.
		return modelShape{steps: 40, weight: 20, stepWork: 1_500_000_000, sysPerStep: 7, parallelEff: 97}
	}
}

// Main is the guest program: `tf_train <model> <threads>`.
func Main(p *guest.Proc) int {
	argv := p.Argv()
	if len(argv) < 3 {
		p.Eprintf("usage: tf_train <alexnet|cifar10> <threads>\n")
		return 2
	}
	model := Model(argv[1])
	threads := atoi(argv[2], 1)
	sh := shapeOf(model)

	// Dataset "download" check and session setup.
	if p.Access("/data/dataset.bin") != abi.OK {
		p.Eprintf("tf_train: dataset missing\n")
		return 1
	}
	lossFd, err := p.Open("/data/loss.csv", abi.OCreat|abi.OWronly|abi.OTrunc, 0o644)
	if err != abi.OK {
		return 1
	}
	defer p.Close(lossFd)

	// Weights are initialized from OS randomness, and the input pipeline
	// shuffles with it too — the §7.6 irreproducibility.
	seedBuf := make([]byte, 8)
	p.GetRandom(seedBuf)
	var seed uint64
	for _, b := range seedBuf {
		seed = seed<<8 | uint64(b)
	}

	const (
		wordWork = 0x200 // barrier: work generation
		wordDone = 0x201 // barrier: completions
	)
	serialWork := sh.stepWork * (100 - sh.parallelEff) / 100
	parWork := sh.stepWork - serialWork

	// pipelineShare splits the per-step input-pipeline calls across the
	// pool: thread idx gets sysPerStep/threads, with the remainder going to
	// the lowest indices. Deterministic — a pure function of the shape.
	pipelineShare := func(idx int) int {
		share := sh.sysPerStep / threads
		if idx < sh.sysPerStep%threads {
			share++
		}
		return share
	}
	// trainChunk is one thread's slice of a step: its share of the input
	// pipeline interleaved with its share of the math, prefetch-style —
	// each batch is fetched, then crunched. The interleaving is what lets
	// the tracer service one thread's calls while the others compute.
	trainChunk := func(g *guest.Proc, idx int) {
		myPar := parWork / int64(threads)
		opens := pipelineShare(idx)
		if opens == 0 {
			g.Compute(myPar)
			return
		}
		chunk := myPar / int64(opens)
		for j := 0; j < opens; j++ {
			if fd, derr := g.Open("/data/dataset.bin", abi.ORdonly, 0); derr == abi.OK {
				buf := make([]byte, 128)
				g.Read(fd, buf)
				g.Close(fd)
			}
			g.Compute(chunk)
		}
		if rem := myPar - chunk*int64(opens); rem > 0 {
			g.Compute(rem)
		}
	}

	// OpenMP-style worker pool: a generation-counter barrier. Each worker
	// contributes one chunk per generation, blocking (never spinning) in
	// between — the DetTrace-compatible threading style (§5.7).
	for i := 1; i < threads; i++ {
		idx := i
		p.CloneThread(func(w *guest.Proc) int {
			lastGen := int64(0)
			for {
				gen := w.Load(wordWork)
				switch {
				case gen < 0:
					return 0
				case gen == lastGen:
					w.FutexWait(wordWork, gen)
				default:
					lastGen = gen
					trainChunk(w, idx)
					w.Add(wordDone, 1)
					w.FutexWake(wordDone, 16)
				}
			}
		})
	}

	p.SetWeight(sh.weight)
	for step := 1; step <= sh.steps; step++ {
		// Serial section: optimizer bookkeeping, queue management.
		p.Compute(serialWork)
		if threads > 1 {
			// Release the pool for this step.
			p.Store(wordWork, int64(step))
			p.FutexWake(wordWork, 64)
			// Main thread takes its own share.
			trainChunk(p, 0)
			p.Add(wordDone, 1)
			for p.Load(wordDone) < int64(step)*int64(threads) {
				p.FutexWait(wordDone, p.Load(wordDone))
			}
		} else {
			trainChunk(p, 0)
		}
		loss := lossAt(model, step, seed)
		p.WriteString(lossFd, fmt.Sprintf("%d,%d.%04d\n", step, loss/10000, loss%10000))
	}
	p.SetWeight(1)
	p.Store(wordWork, -1) // stop the pool
	p.FutexWake(wordWork, 64)
	p.Printf("tf_train %s: %d steps done\n", model, sh.steps)
	return 0
}

// lossAt yields a decreasing-but-noisy loss curve whose noise comes from the
// sampled seed: deterministic inputs → deterministic curve.
func lossAt(m Model, step int, seed uint64) int64 {
	h := seed + uint64(step)*0x9e3779b97f4a7c15
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	noise := int64(h % 9000)
	base := int64(60000) / int64(step)
	return base + noise
}

func atoi(s string, def int) int {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return def
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// --- harness -------------------------------------------------------------------

func image() *fs.Image {
	im := baseimg.Minimal()
	im.AddDir("/data", 0o755)
	im.AddFile("/data/dataset.bin", 0o644, []byte(strings.Repeat("sample-batch ", 512)))
	im.AddFile("/bin/tf_train", 0o755, guest.MakeExe("tf_train", nil))
	return im
}

func registry() *guest.Registry {
	reg := guest.NewRegistry()
	reg.Register("tf_train", Main)
	return reg
}

// RunNative trains natively with the given thread count, returning wall time
// and the loss trace.
func RunNative(m Model, threads int, seed uint64) (int64, string) {
	reg := registry()
	k := kernel.New(kernel.Config{
		Profile:  machine.BioHaswell(),
		Seed:     seed,
		Epoch:    1_550_000_000,
		NumCPU:   16,
		Image:    image(),
		Resolver: reg.Resolver(),
	})
	argv := []string{"tf_train", string(m), fmt.Sprint(threads)}
	init := func(t *kernel.Thread) int {
		p := &guest.Proc{T: t}
		if err := p.Exec("/bin/tf_train", argv, []string{"PATH=/bin"}); err != abi.OK {
			return 127
		}
		return 127
	}
	k.Start(init, argv, []string{"PATH=/bin"})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("mlsim native: %v", err))
	}
	im := k.FS.SnapshotImage(k.FS.Root)
	return k.Now(), lossTrace(im)
}

// RunDetTrace trains inside DetTrace with 16 threads and every mechanism on.
func RunDetTrace(m Model, hostSeed uint64) (int64, string, error) {
	wall, loss, _, err := RunDetTraceOpt(m, 16, hostSeed, 0)
	return wall, loss, err
}

// RunDetTraceOpt trains inside DetTrace with the given thread count and the
// mechanisms in off switched off — core.Off(core.Workspaces) is the
// serialized-execution ablation. The returned core.Result carries the
// observability registry, so callers can read the workspace_forks /
// workspace_merges / workspace_conflicts counters.
func RunDetTraceOpt(m Model, threads int, hostSeed uint64, off core.Mechanisms) (int64, string, *core.Result, error) {
	cfg := core.Config{
		Image:    image(),
		Profile:  machine.BioHaswell(),
		HostSeed: hostSeed,
		Epoch:    1_551_000_000,
		NumCPU:   16,
		PRNGSeed: 0x7f,
	}
	off.Apply(&cfg)
	c := core.New(cfg)
	argv := []string{"tf_train", string(m), fmt.Sprint(threads)}
	res := c.Run(registry(), "/bin/tf_train", argv, []string{"PATH=/bin"})
	return res.WallTime, lossTrace(res.FS), res, res.Err
}

func lossTrace(im *fs.Image) string {
	if e, ok := im.Entries["/data/loss.csv"]; ok {
		return string(e.Data)
	}
	return ""
}

// Result is one §7.6 experiment line.
type Result struct {
	Model          Model
	NativeParallel int64 // 16-thread native wall time
	NativeSerial   int64 // 1-thread native wall time
	DetTrace       int64 // DetTrace wall time (16 threads, workspaces on, no syscall buffer)
	VsParallel     float64
	VsSerial       float64
}

// RunStudy produces both models' §7.6 slowdown numbers, DetTrace running as
// the paper's: without the syscall buffer.
func RunStudy(seed uint64) []Result {
	var out []Result
	for _, m := range Models {
		par, _ := RunNative(m, 16, seed)
		ser, _ := RunNative(m, 1, seed+1)
		dt, _, _, err := RunDetTraceOpt(m, 16, seed+2, core.PaperDetTrace)
		if err != nil {
			panic(fmt.Sprintf("mlsim dettrace: %v", err))
		}
		out = append(out, Result{
			Model:          m,
			NativeParallel: par,
			NativeSerial:   ser,
			DetTrace:       dt,
			VsParallel:     float64(dt) / float64(par),
			VsSerial:       float64(dt) / float64(ser),
		})
	}
	return out
}

// WsRow is one line of the workspace ablation sweep (X17): the same
// DetTrace training run with workspaces on and off at a given thread count.
type WsRow struct {
	Model     Model   `json:"workload"`
	Threads   int     `json:"threads"`
	WsOn      int64   `json:"ws_on_ns"`              // DetTrace wall time, workspaces enabled
	WsOff     int64   `json:"ws_off_ns"`             // DetTrace wall time, serialized ablation
	Speedup   float64 `json:"speedup_vs_serialized"` // WsOff / WsOn
	Forks     int64   `json:"forks"`                 // workspace_forks counter (ws-on run)
	Merges    int64   `json:"merges"`                // workspace_merges counter (ws-on run)
	Conflicts int64   `json:"conflicts"`             // workspace_conflicts counter (ws-on run)
}

// WsThreadPoints are the thread counts the sweep covers.
var WsThreadPoints = []int{1, 4, 16}

// RunWorkspaceSweep runs both models across WsThreadPoints with workspaces
// on and off. It panics if the loss trace differs between the two modes:
// workspace mode only relaxes physical-time serialization, so every
// reproducibility-observable output must stay bit-identical.
func RunWorkspaceSweep(seed uint64) []WsRow {
	var out []WsRow
	for _, m := range Models {
		for _, th := range WsThreadPoints {
			on, lossOn, res, err := RunDetTraceOpt(m, th, seed, 0)
			if err != nil {
				panic(fmt.Sprintf("mlsim ws-on: %v", err))
			}
			off, lossOff, _, err := RunDetTraceOpt(m, th, seed, core.Off(core.Workspaces))
			if err != nil {
				panic(fmt.Sprintf("mlsim ws-off: %v", err))
			}
			if lossOn != lossOff {
				panic(fmt.Sprintf("mlsim %s/%d: loss trace differs across workspace modes", m, th))
			}
			out = append(out, WsRow{
				Model:     m,
				Threads:   th,
				WsOn:      on,
				WsOff:     off,
				Speedup:   float64(off) / float64(on),
				Forks:     res.Obs.Counter("workspace_forks").Value(),
				Merges:    res.Obs.Counter("workspace_merges").Value(),
				Conflicts: res.Obs.Counter("workspace_conflicts").Value(),
			})
		}
	}
	return out
}
