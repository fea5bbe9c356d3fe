package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/abi"
	"repro/internal/guest"
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
				"tracer stops      : ", "buffered calls    : ", "buffer flushes    : ",
				"memory reads      : ", "rdtsc intercepted : ",
				// The census of stops: most first, ties in call-number
				// order; the buffered time call never stops.
				"top tracer stops  :\n  write           1 (50.0%)\n  execve          1 (50.0%)\n"}},
		{name: "stats without seccomp", args: []string{"--no-seccomp", "--stats", "date"}, stdout: demoDate,
			stderr: []string{"buffered calls    : 0\n", "buffer flushes    : 0\n"}},
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

	// The stats census ranks what still stops, not what is called most: a
	// guest that opens and reads many regular files and forks once ranks
	// fork above open and read, which the syscall buffer serves stop-free.
	t.Run("stats ranks tracer stops", func(t *testing.T) {
		reg := repro.NewRegistry()
		reg.Register("readmany", func(p *guest.Proc) int {
			for range 40 {
				p.ReadFile("/etc/hostname")
				p.ReadFile("/etc/os-release")
			}
			p.Fork(func(*guest.Proc) int { return 0 })
			p.Wait()
			return 0
		})
		img := repro.ToolchainImage()
		img.AddFile("/bin/readmany", 0o755, repro.MakeExe("readmany", nil))
		res := repro.New(repro.Config{Image: img}).Run(reg, "/bin/readmany", []string{"readmany"}, nil)
		if res.Err != nil || res.ExitCode != 0 {
			t.Fatalf("run failed: %v (exit %d)", res.Err, res.ExitCode)
		}
		per := res.Stats.PerSyscall
		if per[abi.SysOpen] < 80 || per[abi.SysRead] < 80 || per[abi.SysFork] != 1 {
			t.Fatalf("calls: open %d, read %d, fork %d; want many opens and reads and one fork",
				per[abi.SysOpen], per[abi.SysRead], per[abi.SysFork])
		}
		var stderr bytes.Buffer
		printStats(&stderr, res)
		_, census, _ := strings.Cut(stderr.String(), "top tracer stops  :\n")
		rank := func(nr abi.Sysno) int {
			if i := strings.Index(census, fmt.Sprintf("  %-15s ", nr)); i >= 0 {
				return i
			}
			return len(census)
		}
		if fork := rank(abi.SysFork); fork == len(census) || fork > rank(abi.SysOpen) || fork > rank(abi.SysRead) {
			t.Errorf("census does not rank fork above open and read:\n%s", census)
		}
	})
}

// The census keeps the n heaviest calls, heaviest first, ties in call-number
// order.
func TestTopSyscalls(t *testing.T) {
	per := map[abi.Sysno]int64{
		abi.SysRead: 7, abi.SysOpen: 40, abi.SysClose: 9, abi.SysFstat: 7,
		abi.SysWrite: 1, abi.SysExecve: 1, abi.SysTime: 2,
	}
	want := []abi.Sysno{abi.SysOpen, abi.SysClose, abi.SysRead, abi.SysFstat, abi.SysTime}
	if got := topSyscalls(per, 5); !slices.Equal(got, want) {
		t.Errorf("top five %v, want %v", got, want)
	}
	if got := topSyscalls(per, 10); len(got) != len(per) {
		t.Errorf("top ten of %d calls has %d", len(per), len(got))
	}
}
