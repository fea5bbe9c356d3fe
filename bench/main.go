// Command bench is the repository's benchmark: five seeded workloads over
// the public entry points of repro/internal/..., measured on both clocks
// (host wall/CPU/allocation and the simulator's virtual time), with every
// layer timed from outside by spans the harness records around its calls.
// BENCHMARK.json at the repository root describes it; README.md explains
// the workloads, the metrics and how they interact.
//
//	bench -workload W [-seed S] [-seconds N] [-trace 0|1]   one run
//	bench -all [-seed S]                                     every workload, both modes
//	bench -compare A B                                       two result sets
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: farm-build, boot-churn, syscall-mix, seal-recover, farm-control")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "seconds to measure (0 = run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end run")
		all     = flag.Bool("all", false, "run every workload, end-to-end then traced, each in its own process")
		compare = flag.Bool("compare", false, "compare two result sets: bench -compare A B")
		outDir  = flag.String("out", "bench/out", "result-set directory to write")
		manPath = flag.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json")
	)
	flag.Parse()

	man, manErr := loadManifest(*manPath)
	if *seconds == 0 {
		*seconds = 15 // run_seconds of BENCHMARK.json, for when it cannot be read
		if manErr == nil {
			*seconds = float64(man.RunSeconds)
		}
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A B (two result-set directories)")
		}
		if manErr != nil {
			fatal("compare needs the bounds in %s: %v", *manPath, manErr)
		}
		os.Exit(compareSets(os.Stdout, man, flag.Arg(0), flag.Arg(1)))
	case *all:
		os.Exit(runAll(*seed, *seconds, *outDir, *manPath))
	case *name != "":
		res, err := runBench(options{workload: *name, seed: *seed, seconds: *seconds,
			trace: *trace != 0, scale: 1, clients: defaultClients(), setups: 3,
			minReps: 3, outDir: *outDir})
		if err != nil {
			fatal("%v", err)
		}
		res.print(os.Stdout)
		if err := res.write(*outDir); err != nil {
			fatal("writing result: %v", err)
		}
		fmt.Println(res.lastLine())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runAll runs each workload twice — end-to-end, then traced — each in its
// own child process, so peak_rss_mb and setup_s are per workload. It returns
// the exit code: non-zero if any child failed or reported a failed op.
func runAll(seed uint64, seconds float64, outDir, manPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	code := 0
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
				"-out", outDir, "-benchmark", manPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %s): %v\n", name, trace, err)
				code = 1
				continue
			}
			if res, err := readResult(resultPath(outDir, name, trace == "1")); err != nil || !res.Correct {
				code = 1
			}
		}
	}
	return code
}
