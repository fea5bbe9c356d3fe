package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/buildsim"
	"repro/internal/core"
	"repro/internal/debpkg"
)

// gateArgs is a command line that selects each gate, on package 2.
var gateArgs = map[string][]string{
	"patch":        {"-pkg", "2", "-patch", "src/unit001.c"},
	"attest":       {"-pkg", "2", "-attest", "-byzantine", "2"},
	"nodes":        {"-pkg", "2", "-nodes", "3", "-kill-node", "0"},
	"inject-crash": {"-pkg", "2", "-inject-crash", "0"},
	"bisect":       {"-pkg", "2", "-bisect", "-inject-entropy", "1"},
	"diagnose":     {"-pkg", "2", "-diagnose"},
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
			spec, err := debpkg.Package(*seed, *pkgN)
			if err != nil {
				t.Fatal(err)
			}
			report, ok := g.run(&buildsim.Options{Seed: *seed}, spec)
			if !ok {
				t.Errorf("gate failed on package %d:\n%s", *pkgN, report)
			}
		})
	}
}

// The package index is bounded before the universe is drawn.
func TestLookup(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // the package name; "" for an out-of-range index
	}{
		{-1, ""},
		{debpkg.UniverseSize, ""},
		{0, "pkg-00000"},
	} {
		spec, err := debpkg.Package(1, tc.n)
		switch {
		case tc.want == "" && (err == nil || err.Error() != fmt.Sprintf("package %d out of range", tc.n)):
			t.Errorf("Package(%d): %v, want out of range", tc.n, err)
		case tc.want != "" && (err != nil || spec.Name != tc.want):
			t.Errorf("Package(%d) = %v, %v; want %s", tc.n, spec, err, tc.want)
		}
	}
}

// -off parses into the farm's set, and an unset flag switches nothing off.
func TestOffFlag(t *testing.T) {
	if parseFresh("-pkg", "17", "-off", "workspaces"); off != core.Off(core.Workspaces) {
		t.Errorf("-off workspaces parsed to %#x", off)
	}
	if parseFresh("-pkg", "17"); off != 0 {
		t.Errorf("no -off flag left %#x switched off", off)
	}
}
