package main

import (
	"bytes"
	"strings"
	"testing"
)

// The artifact's demo line: what `dettrace date` prints on any host.
const demoDate = "Sun Aug  8 22:00:00 UTC 1993\n"

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		exit   int
		stdout string   // exact
		stderr []string // each must appear
	}{
		{name: "date", args: []string{"date"}, stdout: demoDate},
		{name: "date on another host",
			args:   []string{"--host-seed", "999", "--epoch", "1234567890", "--machine", "broadwell", "date"},
			stdout: demoDate},
		{name: "date on a third host",
			args:   []string{"--host-seed", "7", "--epoch", "1", "--machine", "sandybridge", "date"},
			stdout: demoDate},
		{name: "unknown machine", args: []string{"--machine", "nosuch", "date"}, exit: 2,
			stderr: []string{`dettrace: unknown machine "nosuch"`}},
		{name: "malformed download", args: []string{"--download", "url=only", "date"}, exit: 2,
			stderr: []string{"dettrace: --download wants url=sha256hex=content"}},
		{name: "no command", exit: 2,
			stderr: []string{"usage: dettrace [flags] command [args...]", "-host-seed"}},
		{name: "stats", args: []string{"--stats", "date"}, stdout: demoDate,
			stderr: []string{"--- dettrace stats ---", "virtual wall time : ", "system calls      : ",
				"tracer stops      : ", "memory reads      : ", "rdtsc intercepted : "}},
		{name: "with-package runs in the package directory", args: []string{"--with-package", "0", "ls"},
			stdout: "Makefile\nconfigure.ac\ndebian\ninclude\nsrc\n",
			stderr: []string{"dettrace: materialized pkg-00000 at /build/pkg-00000-"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if exit := run(tc.args, &stdout, &stderr); exit != tc.exit {
				t.Errorf("exit %d, want %d (stderr %q)", exit, tc.exit, stderr.String())
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout %q, want %q", stdout.String(), tc.stdout)
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr %q lacks %q", stderr.String(), want)
				}
			}
		})
	}
}
