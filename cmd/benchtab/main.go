// Command benchtab regenerates every table and figure of the paper's
// evaluation, and the extension studies (see DESIGN.md's experiment index).
// Each is one row of the sections table below; `benchtab -h` lists them.
//
//	benchtab -table1 -fig5      the named sections
//	benchtab -all               every section that has a flag
//	benchtab -json              machine-readable BENCH_<date>.json report
//	benchtab -trace <dir>       flight-recorder Chrome traces + Prometheus metrics dump
//
// Every reported time is virtual. benchtab exits 1 when a study it ran fails
// its own oracle (a mechanism moved an output bit, a lie was admitted, …).
//
// The package universe defaults to a deterministic 1,200-package sample
// (proportions preserved); -n 0 runs all 17,145 packages like the paper.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bio"
	"repro/internal/buildsim"
	"repro/internal/debpkg"
	"repro/internal/mlsim"
	"repro/internal/stats"
)

// env is what a section runs against: the farm, the sampling flags, the
// results of the keyed sections so far (by JSON key), and the lazily built
// universe report the paper's tables share.
type env struct {
	out      io.Writer
	o        *buildsim.Options // o.Seed also seeds the universe
	n, nport int
	results  map[string]fmt.Stringer
	universe *buildsim.Report
}

// section is one table, figure or study: the one place its flag, heading,
// JSON key and default sample are declared.
type section struct {
	flag   string // command-line flag ("" = part of the -json report only)
	title  string // text heading, and the flag's usage line
	key    string // key its result fills in BENCH_<date>.json ("" = text only)
	sample int    // default package sample, capped by -n (0 = takes no sample)
	// run produces the section; a result with an OK() bool method is a study
	// carrying its own oracle.
	run func(e *env, specs []*debpkg.Spec) fmt.Stringer
}

// text is a pre-rendered section.
type text string

func (t text) String() string { return string(t) }

func heading(title string) string { return fmt.Sprintf("==== %s ====", title) }

// report builds the -n universe once, for the four sections that are views
// of the same BuildAll.
func (e *env) report() *buildsim.Report {
	if e.universe == nil {
		specs := debpkg.Universe(e.o.Seed, e.n)
		fmt.Fprintf(e.out, "== building %d packages (4 builds each) ==\n", len(specs))
		start := time.Now()
		outs := e.o.BuildAll(specs, e.progress)
		fmt.Fprintf(e.out, "   done in %s\n\n", time.Since(start).Round(time.Second))
		e.universe = buildsim.Aggregate(outs)
	}
	return e.universe
}

var sections = []section{
	{"table1", "Table 1: build status transitions, baseline <-> DetTrace", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer {
			return text(e.report().Table1Top() + "\n" + e.report().Table1Bottom())
		}},
	{"unsupported", "§7.1.1: why packages are unsupported", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer { return text(e.report().UnsupportedBreakdown()) }},
	{"table2", "Table 2: per-package average tracer events", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer { return text(e.report().Table2String()) }},
	{"fig5", "Figure 5: DetTrace slowdown vs system call rate (CSV)", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer { return text(e.report().Fig5Summary()) }},
	{"baseline", "§6.1: stock Wheezy baseline (no DetTrace)", "", 400,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer {
			st := e.o.RunStock(specs)
			s := st.String()
			for _, d := range st.SampleDiffs {
				s += "\n  example difference: " + d
			}
			return text(s)
		}},
	{"fig6", "Figure 6: bioinformatics speedups (1/4/16 processes)", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer {
			return text(bio.FormatFig6(bio.RunFig6(e.o.Seed)) + "\n" +
				heading("X17: pthreads builds — workspaces vs serialized threads") + "\n" +
				bio.FormatThreadStudy(bio.RunThreadStudy(e.o.Seed)))
		}},
	{"biorepro", "§6.1: bio output reproducibility (hashdeep)", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer {
			t := stats.NewTable("workflow", "native identical", "dettrace identical")
			for _, r := range bio.VerifyRepro(e.o.Seed) {
				t.Row(string(r.Tool), r.NativeIdentical, r.DetTraceIdentical)
			}
			return t
		}},
	{"tensorflow", "§7.6: TensorFlow (alexnet/cifar10) slowdowns", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer {
			t := stats.NewTable("model", "DT vs 16-thread native", "DT vs serialized native")
			for _, r := range mlsim.RunStudy(e.o.Seed) {
				t.Row(string(r.Model), fmt.Sprintf("%.2fx", r.VsParallel), fmt.Sprintf("%.2fx", r.VsSerial))
			}
			wt := stats.NewTable("model", "threads", "ws on", "ws off", "speedup", "merges", "conflicts")
			for _, r := range mlsim.RunWorkspaceSweep(e.o.Seed) {
				wt.Row(string(r.Model), fmt.Sprint(r.Threads),
					fmt.Sprintf("%.1fs", float64(r.WsOn)/1e9),
					fmt.Sprintf("%.1fs", float64(r.WsOff)/1e9),
					fmt.Sprintf("%.2fx", r.Speedup),
					fmt.Sprint(r.Merges), fmt.Sprint(r.Conflicts))
			}
			return text(t.String() + "\n" +
				heading("X17: intra-op thread pool — workspaces vs serialized threads") + "\n" + wt.String())
		}},
	{"rr", "§7.1.3: comparison with Mozilla rr", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer { return e.o.RunRRStudy() }},
	{"portability", "§7.3: portability across Skylake/4.15 and Broadwell/4.18", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer {
			return text(fmt.Sprintf("%s\nablation (directory-size virtualization disabled):\n%s",
				e.o.RunPortability(e.nport, false), e.o.RunPortability(e.nport, true)))
		}},
	{"rescue", "extension ablation: experimental sockets+signals vs the unsupported set", "", 2400,
		func(e *env, universe []*debpkg.Spec) fmt.Stringer {
			var specs []*debpkg.Spec
			for _, s := range universe {
				if s.Unsup == debpkg.UnsupSocket || s.Unsup == debpkg.UnsupSignal {
					specs = append(specs, s)
				}
				if len(specs) >= 40 {
					break
				}
			}
			exp := &buildsim.Options{Seed: e.o.Seed, Jobs: e.o.Jobs, Experimental: true}
			rescued := 0
			for _, out := range exp.BuildAll(specs, nil) {
				if out.DT == buildsim.Reproducible {
					rescued++
				}
			}
			return text(fmt.Sprintf("socket/signal-class packages sampled: %d; reproducible with experimental modes: %d",
				len(specs), rescued))
		}},
	{"", "syscall microbenchmark: 200k intercepted time() calls, buffer on", "syscall_buffered", 0,
		func(*env, []*debpkg.Spec) fmt.Stringer { return runSyscallBench(false) }},
	{"", "syscall microbenchmark: buffer off", "syscall_unbuffered", 0,
		func(*env, []*debpkg.Spec) fmt.Stringer { return runSyscallBench(true) }},
	{"buffering", "syscall-buffer ablation: Fig. 5 with and without the in-tracee buffer", "aggregate_slowdown", 120,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer { return e.o.RunBufferStudy(specs) }},
	{"templates", "container-template ablation: setup cost with and without COW forks", "templates", 120,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer { return e.o.RunTemplateStudy(specs, 0) }},
	{"", "observability ablation: Fig. 5 with and without the flight recorder", "obs", 24, runObsSection},
	{"faults", "X15: crash recovery — checkpoint restore vs cold replay", "faults", 48,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer { return e.o.RunFaultStudy(specs) }},
	{"farm", "X16: distributed farm — scaling, placement and crash recovery", "farm", 12,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer { return e.o.RunFarmStudy(specs) }},
	{"workspaces", "X17: thread workspaces across the farm — ablation study", "workspaces", 48, runWorkspaceSection},
	{"incremental", "X18: incremental rebuilds — derivation-store seal reuse vs cold", "incremental", 120,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer { return e.o.RunIncrementalStudy(specs, 0) }},
	{"ttd", "X19: time-travel debugging — delta seals, logical-time seek, auto-bisect", "ttd", 24,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer { return e.o.RunTTDStudy(specs) }},
	{"attest", "X20: Byzantine-robust attestation — adversarial schedules, quorum admission, rebuild-free verification", "attest", 6,
		func(e *env, specs []*debpkg.Spec) fmt.Stringer { return e.o.RunAttestStudy(specs) }},
	{"llvm", "§7.2: LLVM self-host correctness", "", 0,
		func(e *env, _ []*debpkg.Spec) fmt.Stringer {
			st := e.o.RunLLVM()
			return text(fmt.Sprintf("native build:   %s\ndettrace build: %s\noutcomes match: %v; dettrace verdict: %s",
				st.NativeSummary, st.DetTraceSummary, st.Match, st.DetTraceVerdict))
		}},
}

// do runs the section over its sample, files a keyed result for the report,
// and reports whether its oracle, if it carries one, holds.
func (s section) do(e *env) (v fmt.Stringer, ok bool) {
	var specs []*debpkg.Spec
	if s.sample > 0 {
		specs = debpkg.Universe(e.o.Seed, sampleOr(e.n, s.sample))
	}
	v = s.run(e, specs)
	if s.key != "" {
		e.results[s.key] = v
	}
	st, isStudy := v.(interface{ OK() bool })
	return v, !isStudy || st.OK()
}

// runSections runs every section pick selects, in table order, printing each
// under its heading, and returns the titles of the studies that failed their
// oracle.
func runSections(e *env, pick func(section) bool) (failed []string) {
	for _, s := range sections {
		if !pick(s) {
			continue
		}
		v, ok := s.do(e)
		fmt.Fprintf(e.out, "%s\n%s\n\n", heading(s.title), strings.TrimRight(v.String(), "\n"))
		if !ok {
			failed = append(failed, s.title)
		}
	}
	return failed
}

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "universe + environment seed")
		n        = flag.Int("n", 1200, "package sample size (0 = full 17,145 universe)")
		jobs     = flag.Int("jobs", 0, "parallel build workers (0 = GOMAXPROCS)")
		nport    = flag.Int("nport", 100, "portability study size (paper: 1,000)")
		jsonOut  = flag.Bool("json", false, "run every keyed study and write BENCH_<date>.json (virtual clock, counts)")
		traceDir = flag.String("trace", "", "export flight-recorder Chrome traces and a Prometheus metrics dump to this directory")
		all      = flag.Bool("all", false, "every section (except -json and -trace, which write files)")
	)
	picked := map[string]*bool{}
	for _, s := range sections {
		if s.flag != "" {
			picked[s.flag] = flag.Bool(s.flag, false, s.title)
		}
	}
	flag.Parse()
	e := &env{out: os.Stdout, o: &buildsim.Options{Seed: *seed, Jobs: *jobs}, n: *n, nport: *nport,
		results: map[string]fmt.Stringer{}}

	failed := runSections(e, func(s section) bool {
		return s.flag != "" && (*all || *picked[s.flag]) || s.key != "" && *jsonOut
	})
	if *jsonOut {
		if err := writeBenchJSON(e); err != nil {
			fmt.Println("benchmark report failed:", err)
			os.Exit(1)
		}
	}
	if *traceDir != "" {
		if err := writeTraces(*seed, *jobs, sampleOr(*n, 8), *traceDir); err != nil {
			fmt.Println("trace export failed:", err)
		}
	}
	if len(failed) > 0 {
		fmt.Println("studies that FAILED their oracle:\n  " + strings.Join(failed, "\n  "))
		os.Exit(1)
	}
}

// progress redraws an in-place counter every 100 packages and always leaves
// a complete, newline-terminated line once the last package finishes, so the
// next section never starts on a dangling \r line.
func (e *env) progress(done, total int) {
	if done%100 == 0 || done == total {
		fmt.Fprintf(e.out, "\r   %d/%d packages", done, total)
	}
	if done == total {
		fmt.Fprintln(e.out)
	}
}

func sampleOr(n, def int) int {
	if n == 0 {
		return 0
	}
	if n < def {
		return n
	}
	return def
}
