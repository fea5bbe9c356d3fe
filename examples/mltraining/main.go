// ML training: a threaded training loop whose minibatch sampling draws OS
// randomness. The loss trace differs on every native run (§7.6); inside
// DetTrace it is a pure function of the container seed, so experiments can
// be audited and re-run exactly. It exits 1 if two hosts' traces differ.
//
//	go run ./examples/mltraining
package main

import (
	"fmt"
	"os"
	"strings"

	"repro"
)

// train runs a tiny 2-thread training loop writing a loss trace.
func train(p *repro.GuestProc) int {
	const steps = 10
	seed := make([]byte, 8)
	p.GetRandom(seed) // weight init + shuffle seed
	var s uint64
	for _, b := range seed {
		s = s<<8 | uint64(b)
	}

	const doneWord = 0x40
	p.CloneThread(func(w *repro.GuestProc) int {
		// Gradient worker: contributes half of each step.
		for w.Load(doneWord) == 0 {
			w.Compute(5_000_000)
			w.FutexWait(doneWord, 0)
		}
		return 0
	})

	for step := 1; step <= steps; step++ {
		p.Compute(10_000_000)
		h := s + uint64(step)*0x9e3779b97f4a7c15
		h ^= h >> 31
		loss := 1000/step + int(h%97)
		p.AppendFile("/data/loss.csv", []byte(fmt.Sprintf("%d,%d\n", step, loss)), 0o644)
	}
	p.Store(doneWord, 1)
	p.FutexWake(doneWord, 4)
	return 0
}

func run(label string, hostSeed uint64, prngSeed uint64) string {
	reg := repro.NewRegistry()
	reg.Register("train", train)
	img := repro.MinimalImage()
	img.AddDir("/data", 0o755)
	img.AddFile("/bin/train", 0o755, repro.MakeExe("train", nil))
	c := repro.New(repro.Config{
		Image: img, Profile: repro.BioHaswell(),
		HostSeed: hostSeed, Epoch: 1_550_000_000, PRNGSeed: prngSeed,
	})
	res := c.Run(reg, "/bin/train", []string{"train"}, nil)
	if res.Err != nil {
		panic(res.Err)
	}
	trace := string(res.FS.Entries["/data/loss.csv"].Data)
	fmt.Printf("--- %s ---\n%s", label, indent(trace))
	return trace
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}

func main() {
	fmt.Println("training twice under DetTrace on different hosts:")
	a := run("host A", 0x1111, 7)
	b := run("host B", 0x2222, 7)
	if a != b {
		fmt.Println("=> MISMATCH!")
		os.Exit(1)
	}
	fmt.Println("=> loss traces identical: the experiment is auditable and exactly re-runnable.")
}
