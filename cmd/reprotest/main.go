// Command reprotest runs the §6.1 build-twice protocol for one package and
// prints the verdicts: the native build under adversarial environment
// variation versus the DetTrace build, with diffoscope localizing whatever
// differs.
//
//	reprotest -pkg 7          # universe package #7
//	reprotest -llvm           # the §7.2 llvm package
//
// With -diagnose the tool instead double-builds the package with identical
// inputs and aligns the two flight-recorder streams, printing the first
// divergent event; -inject-entropy N perturbs the second run's N'th entropy
// draw to demonstrate the diagnoser localizing a seeded fault. The tool
// exits non-zero unless the clean double build is identical with no
// divergence, or the seeded fault is localized to a divergence.
//
//	reprotest -pkg 7 -diagnose
//	reprotest -pkg 7 -diagnose -inject-entropy 3
//
// With -bisect the same seeded divergence is localized the time-travel way:
// both runs record every checkpoint seal, the seal chains are binary-searched
// by ring-prefix digest, and only the bracketing window is re-executed. The
// tool exits non-zero unless bisection lands on the exact event the linear
// diagnoser reports, within the O(log n) window-replay bound.
//
//	reprotest -pkg 7 -bisect -inject-entropy 3
//
// With -inject-crash N the tool instead runs the crash-recovery gate: build
// the package checkpointed and uninterrupted, crash a second run at action N
// (0 picks the midpoint), recover it from its last checkpoint, and exit
// non-zero unless the recovered build is bitwise-identical.
//
//	reprotest -pkg 7 -inject-crash 0
//
// With -nodes N the crash-recovery gate runs distributed: the package is
// built on an N-node farm whose fault plan kills worker -kill-node mid-build
// (0 auto-picks the node the job lands on), the job is stolen and recovered
// on another node from the freshest seal in the coordinator's shard store,
// and the tool exits non-zero unless the result is bitwise-identical to the
// local checkpointed farm's.
//
//	reprotest -pkg 7 -nodes 3 -kill-node 0
//
// With -attest the package is built on a farm whose Byzantine fault plane
// seats -byzantine N simultaneous adversaries — a lying builder, an
// equivocating transparency-log replica, a signature corrupter, a
// co-signature withholder — and the tool exits non-zero unless every
// adversary is detected and quarantined, the admitted statement set and the
// build output are bitwise-unchanged, and the rebuild-free verifier confirms
// the honest artifact while refuting false claims.
//
//	reprotest -pkg 7 -attest -byzantine 2
//
// -off switches mechanisms off in the DetTrace builds: -off workspaces
// serializes the sibling threads of multi-threaded (javac) builds, which
// never changes a verdict or an output byte — only the modeled wall time.
//
//	reprotest -pkg 3 -off workspaces
//
// With -patch FILE (or -patch PKG:FILE, which selects the universe package
// inline) the tool runs the incremental-rebuild gate: build the package
// checkpointed (sealing its derivation store), patch FILE in the source
// tree, rebuild by forking the freshest valid seal, and exit non-zero
// unless the rebuild is bitwise-identical to a cold build of the patched
// tree. Paths are relative to the package directory unless absolute.
//
//	reprotest -pkg 7 -patch src/unit001.c
//	reprotest -patch 7:src/unit001.c
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/buildsim"
	"repro/internal/core"
	"repro/internal/debpkg"
)

var (
	seed      = flag.Uint64("seed", 1, "universe + environment seed")
	pkgN      = flag.Int("pkg", 0, "universe package index")
	llvm      = flag.Bool("llvm", false, "build the llvm package instead")
	diagnose  = flag.Bool("diagnose", false, "double-build with identical inputs and report the first divergent flight-recorder event")
	bisect    = flag.Bool("bisect", false, "localize the first divergent event by checkpoint bisection and verify it against the linear diagnoser")
	inject    = flag.Int("inject-entropy", 0, "with -diagnose or -bisect: perturb the second run's N'th entropy draw")
	crashAt   = flag.Int64("inject-crash", -1, "crash a checkpointed build at action N (0 = midpoint), recover it, and verify the bits")
	nodes     = flag.Int("nodes", 0, "run the crash-recovery gate on a distributed farm with N worker nodes")
	killNode  = flag.Int("kill-node", 0, "with -nodes: worker ordinal to kill mid-build (0 auto-picks the node the job lands on)")
	attest    = flag.Bool("attest", false, "run the Byzantine-robustness gate: attested farm build under seated adversaries")
	byzantine = flag.Int("byzantine", 2, "with -attest: number of simultaneous adversaries to seat (1-4)")
	patch     = flag.String("patch", "", "incremental-rebuild gate: patch FILE (or PKG:FILE) in the source tree, rebuild from the derivation store, and verify the bits")
	off       core.Mechanisms
)

func init() { flag.Var(&off, "off", core.OffUsage) }

// parse reads the command line into the flags above; -patch PKG:FILE selects
// the universe package inline.
func parse(args []string) {
	flag.CommandLine.Parse(args) // ExitOnError
	if i := strings.IndexByte(*patch, ':'); i > 0 {
		if n, err := strconv.Atoi((*patch)[:i]); err == nil {
			*pkgN, *patch = n, (*patch)[i+1:]
		}
	}
}

// gate is one pass/fail mode of the tool: the flag that selects it, when, and
// the buildsim gate behind it, which returns a human-readable report and the
// machine verdict. The first selected row runs; reprotest exits 1 unless it
// passes.
type gate struct {
	flag     string
	selected func() bool
	run      func(o *buildsim.Options, spec *debpkg.Spec) (report string, ok bool)
}

var gates = []gate{
	{"patch", func() bool { return *patch != "" },
		func(o *buildsim.Options, spec *debpkg.Spec) (string, bool) { return o.PatchRebuild(spec, *patch) }},
	{"attest", func() bool { return *attest },
		func(o *buildsim.Options, spec *debpkg.Spec) (string, bool) { return o.ByzantineGate(spec, *byzantine) }},
	{"nodes", func() bool { return *nodes > 0 },
		func(o *buildsim.Options, spec *debpkg.Spec) (string, bool) {
			return o.FarmCrashRecovery(spec, *nodes, *killNode)
		}},
	{"inject-crash", func() bool { return *crashAt >= 0 },
		func(o *buildsim.Options, spec *debpkg.Spec) (string, bool) { return o.CrashRecovery(spec, *crashAt) }},
	{"bisect", func() bool { return *bisect },
		func(o *buildsim.Options, spec *debpkg.Spec) (string, bool) { return o.BisectDiagnose(spec, *inject) }},
	{"diagnose", func() bool { return *diagnose },
		func(o *buildsim.Options, spec *debpkg.Spec) (string, bool) {
			r := o.Diagnose(spec, *inject)
			return r.String(), r.OK(*inject)
		}},
}

// selectGate returns the gate the command line asks for, nil for the plain
// build-twice protocol.
func selectGate() *gate {
	for i := range gates {
		if gates[i].selected() {
			return &gates[i]
		}
	}
	return nil
}

func main() {
	parse(os.Args[1:])

	spec, err := debpkg.LLVM(), error(nil)
	if !*llvm {
		spec, err = debpkg.Package(*seed, *pkgN)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprotest: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("package %s %s  (units=%d headers=%d weight=%d compiler=%s)\n",
		spec.Name, spec.Version, spec.Units, spec.Headers, spec.Weight, spec.Compiler)
	if len(spec.Directives) > 0 {
		fmt.Printf("irreproducibility sources: %v\n", spec.Directives)
	}
	if len(spec.PortDirectives) > 0 {
		fmt.Printf("machine-capturing sources: %v\n", spec.PortDirectives)
	}
	if spec.Unsup != debpkg.UnsupNone {
		fmt.Printf("uses unsupported feature: %s\n", spec.Unsup)
	}

	o := &buildsim.Options{Seed: *seed, Off: off}
	if g := selectGate(); g != nil {
		fmt.Println()
		report, ok := g.run(o, spec)
		fmt.Println(report)
		if !ok {
			os.Exit(1)
		}
		return
	}
	out := o.BuildPackage(spec)
	fmt.Printf("\nbaseline (reprotest variations): %s", out.BL)
	if out.BLTime > 0 {
		fmt.Printf("  [%.1fs, %.0f syscalls/s]", float64(out.BLTime)/1e9, out.SyscallRate)
	}
	fmt.Println()
	if out.DT != "" {
		fmt.Printf("dettrace:                        %s", out.DT)
		if out.UnsupReason != "" {
			fmt.Printf("  (%s)", out.UnsupReason)
		}
		if out.Slowdown > 0 {
			fmt.Printf("  [%.1fs, %.2fx slowdown]", float64(out.DTTime)/1e9, out.Slowdown)
		}
		fmt.Println()
	}
	if out.BL == buildsim.Irreproducible && out.DT == buildsim.Reproducible {
		fmt.Println("\nDetTrace rendered an irreproducible package reproducible, automatically.")
	}
}
