// Bioinformatics workflow: a process-parallel analysis whose workers seed
// heuristics from /dev/urandom — natively irreproducible run to run, stable
// under DetTrace, with the overhead profile of §7.5. It exits 1 if two hosts'
// results differ or a different container seed fails to change them.
//
//	go run ./examples/bioinformatics
package main

import (
	"fmt"
	"os"

	"repro"
)

// oRdonly is open(2)'s O_RDONLY flag.
const oRdonly = 0

// analysis forks N workers that each score a share of sequences using a
// randomly-seeded heuristic, writing results under /data/out.
func analysis(p *repro.GuestProc) int {
	const workers, tasks = 4, 32
	p.MkdirAll("/data/out", 0o755)
	for w := 0; w < workers; w++ {
		worker := w
		p.Fork(func(c *repro.GuestProc) int {
			// Heuristic seed: the irreproducibility.
			seed := make([]byte, 4)
			if fd, err := c.Open("/dev/urandom", oRdonly, 0); err == 0 {
				c.Read(fd, seed)
				c.Close(fd)
			}
			out := fmt.Sprintf("/data/out/worker%02d.scores", worker)
			for t := worker; t < tasks; t += workers {
				c.Compute(40_000_000) // 40ms of alignment math per sequence
				score := int(seed[0])*1000 + t*7
				c.AppendFile(out, []byte(fmt.Sprintf("seq%03d score=%d\n", t, score)), 0o644)
			}
			return 0
		})
	}
	for w := 0; w < workers; w++ {
		p.Wait()
	}
	p.Printf("analysis complete: %d sequences, %d workers\n", tasks, workers)
	return 0
}

func run(label string, cfg repro.Config) string {
	reg := repro.NewRegistry()
	reg.Register("analysis", analysis)
	img := repro.MinimalImage()
	img.AddDir("/data", 0o755)
	img.AddFile("/bin/analysis", 0o755, repro.MakeExe("analysis", nil))
	cfg.Image = img
	if cfg.Profile == nil {
		cfg.Profile = repro.BioHaswell()
	}
	c := repro.New(cfg)
	res := c.Run(reg, "/bin/analysis", []string{"analysis"}, nil)
	if res.Err != nil {
		panic(res.Err)
	}
	hash := repro.HashImage(res.FS)
	fmt.Printf("%-34s hash=%s...  wall=%dms\n", label, hash[:16], res.WallTime/1e6)
	return hash
}

func main() {
	fmt.Println("two DetTrace runs on different hosts (must match):")
	h1 := run("  dettrace / Haswell / seed 1", repro.Config{HostSeed: 1, Epoch: 1_540_000_000, PRNGSeed: 9})
	h2 := run("  dettrace / Broadwell / seed 2", repro.Config{HostSeed: 2, Epoch: 1_590_000_000, PRNGSeed: 9, Profile: repro.PortabilityBroadwell()})
	if h1 != h2 {
		fmt.Println("=> MISMATCH!")
		os.Exit(1)
	}
	fmt.Println("=> identical output trees: the workflow is reproducible.")
	fmt.Println()
	fmt.Println("changing the container's randomness seed (a declared input) changes results:")
	h3 := run("  dettrace / Haswell / PRNG seed 10", repro.Config{HostSeed: 1, Epoch: 1_540_000_000, PRNGSeed: 10})
	if h3 == h1 {
		fmt.Println("=> UNCHANGED: the seed did not reach the results!")
		os.Exit(1)
	}
	fmt.Println("=> different, as requested — \"true randomness\" enters only via the seed.")
}
