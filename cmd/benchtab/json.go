// Machine-readable study report (-json): BENCH_<date>.json is the study
// values themselves — each buildsim study carries its JSON key names as
// struct tags — plus two sections only this command can fill: the syscall
// microbenchmark's exact stop/buffer/flush counts and the mlsim thread sweep.
// Everything in it is virtual time or a count, so two runs of one commit
// agree key for key; host-clock figures live in bench/ (BENCHMARK.json).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/buildsim"
	"repro/internal/debpkg"
	"repro/internal/kernel"
	"repro/internal/mlsim"
)

// benchReport is the BENCH_<date>.json schema. Additions ride in new keys;
// existing keys never rename, so downstream regression tracking keeps parsing
// old and new files alike (TestReportSchema pins the key set). The buffering
// study is embedded: its packages / aggregate_slowdown / bitwise_identical
// are the report's top-level headline.
type benchReport struct {
	Date string `json:"date"`
	Seed uint64 `json:"seed"`

	Buffered   syscallBench `json:"syscall_buffered"`
	Unbuffered syscallBench `json:"syscall_unbuffered"`
	*buildsim.BufferStudy

	Templates   *buildsim.TemplateStudy    `json:"templates"`
	Obs         obsSection                 `json:"obs"`
	Faults      *buildsim.FaultStudy       `json:"faults"`
	Farm        *buildsim.FarmStudy        `json:"farm"`
	Workspaces  workspaceSection           `json:"workspaces"`
	Incremental *buildsim.IncrementalStudy `json:"incremental"`
	TTD         *buildsim.TTDStudy         `json:"ttd"`
	Attest      *buildsim.AttestStudy      `json:"attest"`
}

// syscallCalls is the microbenchmark's loop length.
const syscallCalls = 200_000

// syscallBench is one microbenchmark run: a single-process guest looping on
// an intercepted time() call, and what the tracer paid for it. What a call
// costs on the host clock is bench/'s syscall-mix row
// core.buffered_ns_per_call.
type syscallBench struct {
	Calls    int   `json:"calls"`
	Stops    int64 `json:"ptrace_stops"`
	Buffered int64 `json:"buffered_calls"`
	Flushes  int64 `json:"buffer_flushes"`
	err      error
}

func (b syscallBench) String() string {
	if b.err != nil {
		return "run failed: " + b.err.Error()
	}
	return fmt.Sprintf("%d calls: %d ptrace stops, %d buffered in %d flushes", b.Calls, b.Stops, b.Buffered, b.Flushes)
}

// OK reports whether the guest ran to completion.
func (b syscallBench) OK() bool { return b.err == nil }

// timeLoop runs a guest that issues `calls` intercepted time() calls in a
// fresh container with the mechanisms in off switched off.
func timeLoop(calls int, off repro.Mechanisms) *repro.Result {
	reg := repro.NewRegistry()
	reg.Register("loop", func(p *repro.GuestProc) int {
		for i := 0; i < calls; i++ {
			p.Time()
		}
		return 0
	})
	img := repro.MinimalImage()
	img.AddFile("/bin/loop", 0o755, repro.MakeExe("loop", nil))
	c := repro.New(repro.Config{Image: img, HostSeed: 1, Off: off})
	return c.Run(reg, "/bin/loop", []string{"loop"}, nil)
}

func runSyscallBench(off repro.Mechanisms) syscallBench {
	res := timeLoop(syscallCalls, off)
	return syscallBench{Calls: syscallCalls, Stops: res.Tracer.Stops,
		Buffered: res.Tracer.BufferedCalls, Flushes: res.Tracer.Flushes, err: res.Err}
}

// obsSection is the observability section: the recorder on/off ablation, the
// recorder event volume per setup path (from the template study, which runs
// first — it owns the forked-vs-cold farms), and a 1000-call microbenchmark
// container's ring volume.
type obsSection struct {
	*buildsim.ObsStudy
	AvgRecEventsFork float64 `json:"avg_rec_events_fork"`
	AvgRecEventsCold float64 `json:"avg_rec_events_cold"`
	MicrobenchEvents int64   `json:"recorder_events_microbench"`
	MicrobenchDrops  int64   `json:"recorder_dropped_microbench"`
}

func runObsSection(e *env, specs []*debpkg.Spec) fmt.Stringer {
	ts := e.results["templates"].(*buildsim.TemplateStudy)
	b := obsSection{ObsStudy: e.o.RunObsStudy(specs),
		AvgRecEventsFork: ts.AvgRecEventsFork, AvgRecEventsCold: ts.AvgRecEventsCold}
	if res := timeLoop(1000, 0); res.Err == nil && res.Trace != nil {
		b.MicrobenchEvents = res.Trace.Total()
		b.MicrobenchDrops = res.Trace.Dropped()
	}
	return b
}

// workspaceSection is the thread-workspace section (X17): per-thread-count
// speedups over the serialized ablation, the farm-level study over the
// threaded (javac) packages, and the cost-model constants behind the fork
// and merge charges.
type workspaceSection struct {
	ThreadPoints []mlsim.WsRow `json:"thread_points"`
	*buildsim.WorkspaceStudy
	ForkNs  int64 `json:"avg_fork_ns"`
	MergeNs int64 `json:"avg_merge_ns"`
}

func runWorkspaceSection(e *env, specs []*debpkg.Spec) fmt.Stringer {
	cost := kernel.DefaultCostModel()
	return workspaceSection{ThreadPoints: mlsim.RunWorkspaceSweep(e.o.Seed),
		WorkspaceStudy: e.o.RunWorkspaceStudy(specs),
		ForkNs:         cost.WsForkCost, MergeNs: cost.WsMergeCost}
}

// benchReport assembles the schema from the keyed sections' results; every
// keyed section must have run.
func (e *env) benchReport() *benchReport {
	r := e.results
	return &benchReport{
		Date: time.Now().Format("2006-01-02"), Seed: e.o.Seed,
		Buffered:    r["syscall_buffered"].(syscallBench),
		Unbuffered:  r["syscall_unbuffered"].(syscallBench),
		BufferStudy: r["aggregate_slowdown"].(*buildsim.BufferStudy),
		Templates:   r["templates"].(*buildsim.TemplateStudy),
		Obs:         r["obs"].(obsSection),
		Faults:      r["faults"].(*buildsim.FaultStudy),
		Farm:        r["farm"].(*buildsim.FarmStudy),
		Workspaces:  r["workspaces"].(workspaceSection),
		Incremental: r["incremental"].(*buildsim.IncrementalStudy),
		TTD:         r["ttd"].(*buildsim.TTDStudy),
		Attest:      r["attest"].(*buildsim.AttestStudy),
	}
}

// writeBenchJSON writes the report to BENCH_<date>.json in the working
// directory.
func writeBenchJSON(e *env) error {
	rep := e.benchReport()
	name := fmt.Sprintf("BENCH_%s.json", rep.Date)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", name)
	return nil
}
