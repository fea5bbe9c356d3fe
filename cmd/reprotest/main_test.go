package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/buildsim"
	"repro/internal/debpkg"
)

// gateArgs is a command line that selects each gate, on package 2.
var gateArgs = map[string][]string{
	"patch":        {"-pkg", "2", "-patch", "src/unit001.c"},
	"attest":       {"-pkg", "2", "-attest", "-byzantine", "2"},
	"nodes":        {"-pkg", "2", "-nodes", "3", "-kill-node", "0"},
	"inject-crash": {"-pkg", "2", "-inject-crash", "0"},
	"bisect":       {"-pkg", "2", "-bisect", "-inject-entropy", "1"},
}

// parseFresh resets the tool's flags (not the test binary's) to their
// defaults, then parses args.
func parseFresh(args ...string) {
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			f.Value.Set(f.DefValue)
		}
	})
	parse(args)
}

// Every row of the gate table is reachable from its flag, and passes on
// package 2.
func TestGates(t *testing.T) {
	if parseFresh("-pkg", "2"); selectGate() != nil {
		t.Fatal("no gate flag must select the plain protocol")
	}
	if parseFresh("-patch", "2:src/unit001.c"); *pkgN != 2 || *patch != "src/unit001.c" {
		t.Errorf("-patch PKG:FILE parsed to pkg %d file %q", *pkgN, *patch)
	}
	for i := range gates {
		g := &gates[i]
		t.Run(g.flag, func(t *testing.T) {
			args, ok := gateArgs[g.flag]
			if !ok {
				t.Fatalf("no test command line for gate %q", g.flag)
			}
			if parseFresh(args...); selectGate() != g {
				t.Fatalf("%v selects %v, want the %q gate", args, selectGate(), g.flag)
			}
			spec := debpkg.Universe(*seed, *pkgN+1)[*pkgN]
			report, ok := g.run(&buildsim.Options{Seed: *seed}, spec)
			if !ok {
				t.Errorf("gate failed on package %d:\n%s", *pkgN, report)
			}
		})
	}
}
