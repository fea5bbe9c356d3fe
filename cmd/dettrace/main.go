// Command dettrace mirrors the artifact appendix's CLI: run a command inside
// a reproducible container.
//
//	dettrace [flags] <command> [args...]
//
// Programs come from the simulated toolchain registry (cc, make, tar,
// dpkg-buildpackage, date, ...); the filesystem starts from the built-in
// minimal image plus, optionally, a generated package tree.
//
//	$ dettrace date
//	Sun Aug  8 22:00:00 UTC 1993
//	$ dettrace --host-seed 999 --machine broadwell date
//	Sun Aug  8 22:00:00 UTC 1993        # same output on any host
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/abi"
	"repro/internal/debpkg"
	"repro/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args (without the program name), runs
// the container, writes its streams to stdout and stderr and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dettrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed       = fs.Uint64("seed", 0, "container PRNG seed (part of the container input)")
		hostSeed   = fs.Uint64("host-seed", 1, "simulated physical-run entropy (must not affect output)")
		epoch      = fs.Int64("epoch", 1_600_000_000, "host wall-clock epoch at boot (must not affect output)")
		mach       = fs.String("machine", "skylake", "host machine: skylake|broadwell|haswell|sandybridge")
		noSeccomp  = fs.Bool("no-seccomp", false, "disable seccomp-bpf selective interception (slower, same results)")
		debug      = fs.Int("debug", 0, "debug verbosity (>=1 traces every system call)")
		workingDir = fs.String("working-dir", "", "container working directory (default /build)")
		withPkg    = fs.Int("with-package", -1, "materialize universe package N under /build")
		showStats  = fs.Bool("stats", false, "print tracer statistics after the run")
		expSocks   = fs.Bool("experimental-sockets", false, "allow container-internal AF_UNIX sockets")
		expSigs    = fs.Bool("experimental-signals", false, "allow reproducible cross-process signals")
		fastVdso   = fs.Bool("fast-vdso", false, "answer vDSO timing calls logically without a stop")
		download   = fs.String("download", "", "declare a fetchable file: url=sha256hex=literal-content")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dettrace [flags] command [args...]")
		fs.Usage()
		return 2
	}

	profiles := map[string]func() *machine.Profile{
		"skylake":     machine.CloudLabC220G5,
		"broadwell":   machine.PortabilityBroadwell,
		"haswell":     machine.BioHaswell,
		"sandybridge": machine.LegacySandyBridge,
	}
	mk, ok := profiles[*mach]
	if !ok {
		fmt.Fprintf(stderr, "dettrace: unknown machine %q\n", *mach)
		return 2
	}

	img := repro.ToolchainImage()
	wd := *workingDir
	if *withPkg >= 0 {
		specs := debpkg.Universe(1, *withPkg+1)
		spec := specs[*withPkg]
		pkgdir := spec.Materialize(img, "/build")
		if wd == "" {
			wd = pkgdir
		}
		fmt.Fprintf(stderr, "dettrace: materialized %s at %s\n", spec.Name, pkgdir)
	}

	cfg := repro.Config{
		Image:               img,
		Profile:             mk(),
		HostSeed:            *hostSeed,
		Epoch:               *epoch,
		PRNGSeed:            *seed,
		WorkingDir:          wd,
		DisableSeccomp:      *noSeccomp,
		ExperimentalSockets: *expSocks,
		ExperimentalSignals: *expSigs,
		FastVdso:            *fastVdso,
	}
	if *download != "" {
		parts := strings.SplitN(*download, "=", 3)
		if len(parts) != 3 {
			fmt.Fprintln(stderr, "dettrace: --download wants url=sha256hex=content")
			return 2
		}
		cfg.Downloads = map[string]repro.Download{
			parts[0]: {SHA256: parts[1], Data: []byte(parts[2])},
		}
	}
	if *debug >= 1 {
		cfg.Debug = func(f string, a ...any) { fmt.Fprintf(stderr, "[dettrace] "+f+"\n", a...) }
	}

	reg := repro.NewRegistry()
	repro.RegisterToolchain(reg)

	argv := fs.Args()
	path := argv[0]
	if len(path) > 0 && path[0] != '/' {
		path = "/bin/" + path
	}
	c := repro.New(cfg)
	res := c.Run(reg, path, argv, []string{"PATH=/bin", "USER=root", "HOME=/root", "LC_ALL=C", "TZ=UTC"})

	io.WriteString(stdout, res.Stdout)
	io.WriteString(stderr, res.Stderr)
	if res.Err != nil {
		var ue *repro.UnsupportedError
		if errors.As(res.Err, &ue) {
			fmt.Fprintf(stderr, "dettrace: container error: unsupported operation: %s\n", ue.Op)
			return 1
		}
		fmt.Fprintf(stderr, "dettrace: %v\n", res.Err)
		return 1
	}
	if *showStats {
		printStats(stderr, res)
	}
	return res.ExitCode
}

// printStats writes --stats' report of a finished run: the tracer's totals,
// then the five calls that stopped at the tracer most, each with its share
// of those stops.
func printStats(w io.Writer, res *repro.Result) {
	fmt.Fprintf(w, "--- dettrace stats ---\n")
	fmt.Fprintf(w, "virtual wall time : %.3fs\n", float64(res.WallTime)/1e9)
	fmt.Fprintf(w, "system calls      : %d\n", res.Stats.Syscalls)
	fmt.Fprintf(w, "tracer stops      : %d\n", res.Tracer.Stops)
	fmt.Fprintf(w, "buffered calls    : %d\n", res.Tracer.BufferedCalls)
	fmt.Fprintf(w, "buffer flushes    : %d\n", res.Tracer.Flushes)
	fmt.Fprintf(w, "memory reads      : %d\n", res.Tracer.MemReads)
	fmt.Fprintf(w, "rdtsc intercepted : %d\n", res.Stats.RdtscTrapped)
	fmt.Fprintf(w, "top tracer stops  :\n")
	stops := res.Stats.StopsPerSyscall.Map()
	var total int64
	for _, n := range stops {
		total += n
	}
	for _, nr := range topSyscalls(stops, 5) {
		fmt.Fprintf(w, "  %-15s %d (%.1f%%)\n", nr, stops[nr], 100*float64(stops[nr])/float64(total))
	}
}

// topSyscalls returns the n calls with the largest weighted counts, most
// frequent first and ties in call-number order. Over the tracer's stops per
// call it ranks which family the syscall buffer should take next.
func topSyscalls(per map[abi.Sysno]int64, n int) []abi.Sysno {
	nrs := make([]abi.Sysno, 0, len(per))
	for nr := range per {
		nrs = append(nrs, nr)
	}
	slices.SortFunc(nrs, func(a, b abi.Sysno) int {
		return cmp.Or(cmp.Compare(per[b], per[a]), cmp.Compare(a, b))
	})
	return nrs[:min(n, len(nrs))]
}
