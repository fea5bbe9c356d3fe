package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/obs"
)

// Table-driven tests of the syscall table (syscalls.go): its shape, the
// compiled verdict tables, and the two contracts a row carries — an
// unsupported row aborts in every interception mode, and a buffer row's
// buffered answer is its traced answer.

// runGuest runs prog as the container's init on the default host. The
// image holds a FIFO at /var/probe.fifo for the open probes.
func runGuest(t *testing.T, cfg Config, prog guest.Program) *Result {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	img.AddFifo("/var/probe.fifo", 0o644)
	cfg.Image = img
	return New(cfg).Run(reg, "/bin/main", []string{"main"}, []string{"PATH=/bin"})
}

// modes names the three interception modes by the config that selects them.
var modes = []struct {
	name string
	cfg  Config
	mode int
}{
	{"default", Config{}, modeBuffered},
	{"DisableSyscallBuf", Config{DisableSyscallBuf: true}, modeUnbuffered},
	{"DisableSeccomp", Config{DisableSeccomp: true}, modeTraceAll},
}

// mayBlock lists the calls whose kernel service routine can report "would
// block". The buffered path runs that routine directly on the guest side,
// where it must not park, so such a row is buffered only under the descriptor
// rule: on a regular file the routine never blocks.
var mayBlock = map[abi.Sysno]bool{
	abi.SysRead: true, abi.SysWrite: true, abi.SysNanosleep: true, abi.SysPause: true,
	abi.SysWait4: true, abi.SysFutex: true, abi.SysAccept: true, abi.SysAccept4: true,
	abi.SysConnect: true, abi.SysRecvfrom: true,
}

// A row's parts must agree: an allowed call never reaches a handler or the
// tracer's unsupported check, the write bit only matters for allowed calls,
// a buffered call is supported and cannot block unless the descriptor rule
// keeps it on regular files, and an argument or descriptor rule narrows a
// buffer bit on a supported, non-write row.
func TestSyscallTableShape(t *testing.T) {
	for nr := range abi.Sysno(abi.SysnoSlots) {
		r := rowOf(nr)
		if r.allow && (r.enter != nil || r.exit != nil || r.gate != supported) {
			t.Errorf("%v: an allow row has handlers or a gate", nr)
		}
		if r.write && !r.allow {
			t.Errorf("%v: write bit on a row seccomp traps", nr)
		}
		if r.buffer && (r.gate != supported || mayBlock[nr] && !r.regularFD) {
			t.Errorf("%v: a buffer row is unsupported, or may block without the descriptor rule", nr)
		}
		if (r.unless != 0 || r.regularFD) && (!r.buffer || r.gate != supported || r.write) {
			t.Errorf("%v: an argument or descriptor rule on a row without the buffer bit, or with a gate or the write bit", nr)
		}
	}
}

// A call with no row takes the traced default in every mode, and a row's
// verdict does not leak to its neighbours.
func TestDefaultAction(t *testing.T) {
	if r := rowOf(abi.SysExecve); r.allow || r.buffer || r.gate != supported || r.enter != nil || r.exit != nil {
		t.Fatalf("execve was meant to have no row")
	}
	for _, m := range modes {
		if v := verdicts[m.mode][abi.SysExecve]; v != actTrace {
			t.Errorf("%s: a call with no row got verdict %d, want the traced default", m.name, v)
		}
	}
	if verdicts[modeUnbuffered][abi.SysClose] != actAllow || verdicts[modeUnbuffered][abi.SysRead] != actTrace {
		t.Errorf("close must be allowed and read traced")
	}
}

// The no-seccomp fallback traces every call, including the cheap and the
// buffered ones.
func TestTraceAll(t *testing.T) {
	for _, nr := range []abi.Sysno{abi.SysRead, abi.SysGetcwd, abi.SysClose, abi.SysTime} {
		if verdicts[modeTraceAll][nr] != actTrace {
			t.Errorf("%v not traced under DisableSeccomp", nr)
		}
	}
}

// bufferSet is the documented buffered set: the time and pid families,
// fstat, read-only open/openat and regular-file read (traced without the
// buffer) plus lseek/fcntl/umask/getcwd (allowed without it).
var bufferSet = map[abi.Sysno]bool{
	abi.SysTime: true, abi.SysGettimeofday: true, abi.SysClockGettime: true,
	abi.SysGetpid: true, abi.SysGetppid: true, abi.SysGetTid: true, abi.SysFstat: true,
	abi.SysOpen: true, abi.SysOpenat: true, abi.SysRead: true,
	abi.SysLseek: true, abi.SysFcntl: true, abi.SysUmask: true, abi.SysGetcwd: true,
}

// The buffered table differs from the unbuffered one in exactly the
// documented set, so the DisableSyscallBuf ablation reproduces pre-buffer
// behaviour bit for bit.
func TestDetTraceBufferedDelta(t *testing.T) {
	for nr := range abi.Sysno(abi.SysnoSlots) {
		plain, buf := verdicts[modeUnbuffered][nr], verdicts[modeBuffered][nr]
		if bufferSet[nr] {
			if buf != actBuffer {
				t.Errorf("%v: want the buffer verdict, got %d", nr, buf)
			}
			if plain == actBuffer {
				t.Errorf("%v: the unbuffered table must not buffer", nr)
			}
			continue
		}
		if buf != plain {
			t.Errorf("%v: verdict moved from %d to %d outside the buffer set", nr, plain, buf)
		}
	}
}

// Every table covers the whole dispatch universe with a valid verdict, the
// unbuffered table never buffers, and a number out of range takes the traced
// default in every mode.
func TestFiltersCoverTheSyscallUniverse(t *testing.T) {
	for _, nr := range abi.Sysnos() {
		for _, m := range modes {
			if v := verdicts[m.mode][nr]; v != actTrace && v != actAllow && v != actBuffer {
				t.Errorf("%v: %s table holds invalid verdict %d", nr, m.name, v)
			}
		}
		if verdicts[modeUnbuffered][nr] == actBuffer {
			t.Errorf("%v: the unbuffered table must never buffer", nr)
		}
		if verdicts[modeTraceAll][nr] != actTrace {
			t.Errorf("%v: DisableSeccomp must trace everything", nr)
		}
	}
	for _, m := range modes {
		c := New(m.cfg)
		for _, nr := range []abi.Sysno{-1, abi.SysnoSlots, 1 << 20} {
			if v := c.verdictOf(nil, &abi.Syscall{Num: nr}); v != actTrace {
				t.Errorf("%s: out-of-range %d got verdict %d, want the traced default", m.name, nr, v)
			}
		}
	}
}

// The dense tables compiled at init agree with the rows they come from, and
// every container reads the shared table of its mode rather than a copy.
func TestDenseTableMatchesSetVerdicts(t *testing.T) {
	for nr := range abi.Sysno(abi.SysnoSlots) {
		r := rowOf(nr)
		want := actTrace
		if r.allow {
			want = actAllow
		}
		if plain := verdicts[modeUnbuffered][nr]; plain != want {
			t.Errorf("%v: unbuffered verdict %d, want %d", nr, plain, want)
		}
		if r.buffer {
			want = actBuffer
		}
		if buf := verdicts[modeBuffered][nr]; buf != want {
			t.Errorf("%v: buffered verdict %d, want %d", nr, buf, want)
		}
	}
	for _, m := range modes {
		if c := New(m.cfg); c.verdicts != &verdicts[m.mode] {
			t.Errorf("%s: container does not share the compiled %d table", m.name, m.mode)
		}
	}
}

// Every syscall whose result can depend on the host must trap. The paper's
// taxonomy (§4, §5) enumerates them.
func TestDetTraceFilterTrapsEverythingIrreproducible(t *testing.T) {
	mustTrace := []abi.Sysno{
		// time and clocks (§5.3)
		abi.SysTime, abi.SysGettimeofday, abi.SysClockGettime, abi.SysNanosleep,
		// timers and signals (§5.4)
		abi.SysAlarm, abi.SysSetitimer, abi.SysPause, abi.SysKill,
		// randomness (§5.2)
		abi.SysGetrandom,
		// filesystem metadata (§5.5)
		abi.SysOpen, abi.SysStat, abi.SysLstat, abi.SysFstat,
		abi.SysGetdents, abi.SysUtimes, abi.SysUtimensat,
		// partial IO (§5.5)
		abi.SysRead, abi.SysWrite,
		// identity (§5.1) and machine (§5.8)
		abi.SysGetpid, abi.SysGetppid, abi.SysUname, abi.SysSysinfo,
		// process lifecycle and blocking (§5.6)
		abi.SysFork, abi.SysClone, abi.SysExecve, abi.SysWait4, abi.SysFutex,
		// unsupported classes must reach the tracer to raise the container
		// error (§5.9)
		abi.SysSocket, abi.SysConnect, abi.SysMount, abi.SysPersonality,
	}
	for _, nr := range mustTrace {
		if verdicts[modeUnbuffered][nr] != actTrace {
			t.Errorf("%v must be traced", nr)
		}
	}
}

func TestDetTraceFilterAllowsTheCheapSet(t *testing.T) {
	allowed := []abi.Sysno{
		abi.SysClose, abi.SysLseek, abi.SysDup2, abi.SysGetcwd,
		abi.SysSchedYield, abi.SysBrk, abi.SysUmask, abi.SysSync,
	}
	for _, nr := range allowed {
		if verdicts[modeUnbuffered][nr] != actAllow {
			t.Errorf("%v should pass through without stops (§5.11)", nr)
		}
	}
}

// Every unsupported row, and every socket row while ExperimentalSockets is
// off, aborts the container reproducibly in every interception mode (§5.9).
func TestUnsupportedSyscallAborts(t *testing.T) {
	for nr := range abi.Sysno(abi.SysnoSlots) {
		var want string
		switch rowOf(nr).gate {
		case supported:
			continue
		case unsupported:
			want = "syscall:" + nr.String()
		case socketCall:
			want = "socket"
		}
		for _, m := range modes {
			t.Run(nr.String()+"/"+m.name, func(t *testing.T) {
				res := runGuest(t, m.cfg, func(p *guest.Proc) int {
					p.T.Syscall(&abi.Syscall{Num: nr})
					return 0
				})
				if op, ok := res.Unsupported(); !ok || op != want {
					t.Errorf("got %v, want an unsupported %q abort", res.Err, want)
				}
			})
		}
	}
}

// rowProbes issues one buffer row's call from a guest and formats what the
// guest observed. fds holds a regular file and a directory. A row that gains
// the buffer bit needs a probe here before it lands.
var rowProbes = map[abi.Sysno]func(p *guest.Proc, fds [2]int, i int) string{
	abi.SysTime:         func(p *guest.Proc, _ [2]int, _ int) string { return fmt.Sprint(p.Time()) },
	abi.SysGettimeofday: func(p *guest.Proc, _ [2]int, _ int) string { return fmt.Sprint(p.Gettimeofday()) },
	abi.SysClockGettime: func(p *guest.Proc, _ [2]int, _ int) string { return fmt.Sprint(p.ClockGettime()) },
	abi.SysGetpid:       func(p *guest.Proc, _ [2]int, _ int) string { return fmt.Sprint(p.Getpid()) },
	abi.SysGetppid:      func(p *guest.Proc, _ [2]int, _ int) string { return fmt.Sprint(p.Getppid()) },
	abi.SysGetTid:       func(p *guest.Proc, _ [2]int, _ int) string { return fmt.Sprint(p.Gettid()) },
	abi.SysFstat: func(p *guest.Proc, fds [2]int, i int) string {
		st, err := p.Fstat(fds[i%2])
		return fmt.Sprintf("%+v %v", st, err)
	},
	abi.SysLseek: func(p *guest.Proc, fds [2]int, i int) string {
		off, err := p.Lseek(fds[0], int64(i%16), abi.SeekSet)
		return fmt.Sprint(off, err)
	},
	abi.SysFcntl: func(p *guest.Proc, fds [2]int, i int) string {
		v, err := p.Fcntl(fds[i%2], 3, 0) // F_GETFL
		return fmt.Sprint(v, err)
	},
	abi.SysUmask:  func(p *guest.Proc, _ [2]int, i int) string { return fmt.Sprint(p.Umask(uint32(i) & 0o77)) },
	abi.SysGetcwd: func(p *guest.Proc, _ [2]int, _ int) string { s, err := p.Getcwd(); return s + err.String() },
	abi.SysOpen:   openProbe(abi.SysOpen),
	abi.SysOpenat: openProbe(abi.SysOpenat),
	abi.SysRead:   readProbe,
}

// readProbe reads the 16-byte regular file fds[0] three ways in turn: in
// full from the start; from offset 11 with an odd 7-byte buffer, so the read
// crosses EOF and Fig. 4 retries it; and 3 bytes after an lseek. It reports
// what was read and the offset it left.
func readProbe(p *guest.Proc, fds [2]int, i int) string {
	off, size := int64(0), 16
	switch i % 3 {
	case 1:
		off, size = 11, 7
	case 2:
		off, size = int64(i%16), 3
	}
	p.Lseek(fds[0], off, abi.SeekSet)
	buf := make([]byte, size)
	n, err := p.Read(fds[0], buf)
	pos, _ := p.Lseek(fds[0], 0, abi.SeekCur)
	return fmt.Sprintf("%d %v %q @%d", n, err, buf[:max(n, 0)], pos)
}

// openProbe opens read-only through call nr, in turn: an existing file, a
// missing one, a directory with O_DIRECTORY, a FIFO and /dev/urandom. It
// reports the result and what fstat says of the descriptor, then closes it.
func openProbe(nr abi.Sysno) func(p *guest.Proc, _ [2]int, i int) string {
	targets := [...]struct {
		path  string
		flags int64
	}{
		{"/tmp/probe", abi.ORdonly},
		{"/tmp/missing", abi.ORdonly},
		{"/tmp", abi.ORdonly | abi.ODirectory},
		{"/var/probe.fifo", abi.ORdonly},
		{"/dev/urandom", abi.ORdonly},
	}
	return func(p *guest.Proc, _ [2]int, i int) string {
		tg := targets[i%len(targets)]
		sc := p.T.Syscall(&abi.Syscall{Num: nr, Path: tg.path, Arg: [6]int64{tg.flags}})
		if sc.Err() != abi.OK {
			return fmt.Sprint(sc.Ret)
		}
		st, err := p.Fstat(int(sc.Ret))
		p.Close(int(sc.Ret))
		return fmt.Sprintf("%d %+v %v", sc.Ret, st, err)
	}
}

// Buffering is mechanism: for every buffer row, a guest issuing that call
// more times than the buffer holds (so both the fast path and the full-buffer
// slow path service it), in a process and in a forked child, observes the
// same values with the buffer on as with it off.
func TestBufferedRowsMatchTraced(t *testing.T) {
	for nr := range abi.Sysno(abi.SysnoSlots) {
		if !rowOf(nr).buffer {
			continue
		}
		t.Run(nr.String(), func(t *testing.T) {
			probe, ok := rowProbes[nr]
			if !ok {
				t.Fatalf("buffer row without a probe")
			}
			loop := func(p *guest.Proc, fds [2]int, n int) string {
				var b strings.Builder
				for i := range n {
					b.WriteString(probe(p, fds, i) + ";")
				}
				return b.String()
			}
			prog := func(p *guest.Proc) int {
				p.WriteFile("/tmp/probe", []byte("0123456789abcdef"), 0o644)
				file, ferr := p.Open("/tmp/probe", abi.ORdwr, 0)
				dir, derr := p.Open("/tmp", abi.ORdonly, 0)
				if ferr != abi.OK || derr != abi.OK {
					return 1
				}
				fds := [2]int{file, dir}
				out := loop(p, fds, 2*syscallBufCap)
				p.Fork(func(c *guest.Proc) int {
					c.Printf("child %s\n", loop(c, fds, 8))
					return 0
				})
				p.Wait()
				p.Printf("parent %s\n", out)
				return 0
			}
			on := runGuest(t, Config{}, prog)
			off := runGuest(t, Config{DisableSyscallBuf: true}, prog)
			if on.Err != nil || off.Err != nil || on.ExitCode != 0 || off.ExitCode != 0 {
				t.Fatalf("runs failed: %v (exit %d) / %v (exit %d)", on.Err, on.ExitCode, off.Err, off.ExitCode)
			}
			fp := func(r *Result) string { return r.Stdout + "|" + hashdeep.HashSubtree(r.FS, "/tmp").Total() }
			if fp(on) != fp(off) {
				t.Errorf("buffered and traced answers differ:\n on: %s\noff: %s", on.Stdout, off.Stdout)
			}
			if on.Tracer.BufferedCalls == 0 || off.Tracer.BufferedCalls != 0 {
				t.Errorf("buffered calls: %d with the buffer on, %d off", on.Tracer.BufferedCalls, off.Tracer.BufferedCalls)
			}
			if on.Stats.UrandomOpens != off.Stats.UrandomOpens {
				t.Errorf("urandom opens: %d with the buffer on, %d off", on.Stats.UrandomOpens, off.Stats.UrandomOpens)
			}
			if on.Stats.ReadRetries != off.Stats.ReadRetries || nr == abi.SysRead && on.Stats.ReadRetries == 0 {
				t.Errorf("read retries: %d with the buffer on, %d off", on.Stats.ReadRetries, off.Stats.ReadRetries)
			}
		})
	}
}

// The open rows' argument rule: an open whose flags may create, truncate or
// write, and creat (no buffer bit), stay on the traced path — an enter and an
// exit event and a tracer stop — where a read-only open leaves one buffered
// record instead.
func TestWriteOpensStayTraced(t *testing.T) {
	type counts struct{ enter, exit, buffered int }
	run := func(calls ...abi.Syscall) (counts, int64) {
		res := runGuest(t, Config{}, func(p *guest.Proc) int {
			for _, sc := range calls {
				p.T.Syscall(&sc)
			}
			return 0
		})
		if res.Err != nil || res.ExitCode != 0 {
			t.Fatalf("%+v: run failed: %v (exit %d)", calls, res.Err, res.ExitCode)
		}
		var c counts
		for _, e := range res.Events {
			switch e.Kind {
			case obs.KindSyscallEnter:
				c.enter++
			case obs.KindSyscallExit:
				c.exit++
			case obs.KindBuffered:
				c.buffered++
			}
		}
		return c, res.Tracer.Stops
	}
	open := func(nr abi.Sysno, flags int64) abi.Syscall {
		return abi.Syscall{Num: nr, Path: "/etc/hostname", Arg: [6]int64{flags, 0o644}}
	}
	base, baseStops := run()
	for _, nr := range []abi.Sysno{abi.SysOpen, abi.SysOpenat} {
		if got, _ := run(open(nr, abi.ORdonly)); got != (counts{base.enter, base.exit, base.buffered + 1}) {
			t.Errorf("%v read-only: events %+v, want %+v plus one buffered record", nr, got, base)
		}
		for _, flag := range []int64{abi.OCreat, abi.OTrunc, abi.OWronly, abi.ORdwr} {
			got, stops := run(open(nr, flag))
			if got != (counts{base.enter + 1, base.exit + 1, base.buffered}) || stops <= baseStops {
				t.Errorf("%v flags %#x: events %+v and %d stops, want %+v plus one enter and one exit, and more than %d stops",
					nr, flag, got, stops, base, baseStops)
			}
		}
	}
	if got, stops := run(open(abi.SysCreat, 0)); got != (counts{base.enter + 1, base.exit + 1, base.buffered}) || stops <= baseStops {
		t.Errorf("creat: events %+v and %d stops, want %+v plus one enter and one exit, and more than %d stops",
			got, stops, base, baseStops)
	}
}

// The read row's descriptor rule: a read of anything but an open regular
// file — a pipe (also one that parks until its writer writes), a FIFO, a
// device, console stdin, a directory or a closed descriptor — stays on the
// traced path, with an enter and an exit event and a tracer stop, where a
// regular-file read leaves one buffered record and no stop.
func TestNonRegularReadsStayTraced(t *testing.T) {
	read := func(p *guest.Proc, fd, n int) string {
		buf := make([]byte, n)
		got, err := p.Read(fd, buf)
		return fmt.Sprintf("%d %v %q", got, err, buf[:max(got, 0)])
	}
	cases := []struct {
		name   string
		prog   func(p *guest.Proc) string
		want   string
		traced bool
	}{
		{"regular file", func(p *guest.Proc) string {
			fd, _ := p.Open("/etc/hostname", abi.ORdonly, 0)
			return read(p, fd, 3)
		}, `3 OK "whe"`, false},
		{"pipe", func(p *guest.Proc) string {
			r, w, _ := p.Pipe()
			p.Write(w, []byte("hi"))
			return read(p, r, 2)
		}, `2 OK "hi"`, true},
		{"parked pipe", func(p *guest.Proc) string {
			r, w, _ := p.Pipe()
			p.Fork(func(c *guest.Proc) int {
				c.Compute(50_000_000)
				c.Write(w, []byte("hi"))
				return 0
			})
			got := read(p, r, 2)
			p.Wait()
			return got
		}, `2 OK "hi"`, true},
		{"fifo", func(p *guest.Proc) string {
			w, _ := p.Open("/var/probe.fifo", abi.OWronly, 0)
			r, _ := p.Open("/var/probe.fifo", abi.ORdonly, 0)
			p.Write(w, []byte("fifo"))
			return read(p, r, 4)
		}, `4 OK "fifo"`, true},
		{"urandom", func(p *guest.Proc) string {
			fd, _ := p.Open("/dev/urandom", abi.ORdonly, 0)
			got, err := p.Read(fd, make([]byte, 8))
			return fmt.Sprint(got, err)
		}, "8 OK", true},
		{"console stdin", func(p *guest.Proc) string { return read(p, 0, 4) }, `0 OK ""`, true},
		{"directory", func(p *guest.Proc) string {
			fd, _ := p.Open("/tmp", abi.ORdonly|abi.ODirectory, 0)
			return read(p, fd, 4)
		}, `0 EISDIR ""`, true},
		{"closed fd", func(p *guest.Proc) string {
			fd, _ := p.Open("/etc/hostname", abi.ORdonly, 0)
			p.Close(fd)
			return read(p, fd, 4)
		}, `0 EBADF ""`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got string
			res := runGuest(t, Config{}, func(p *guest.Proc) int {
				got = tc.prog(p)
				return 0
			})
			if res.Err != nil || res.ExitCode != 0 {
				t.Fatalf("run failed: %v (exit %d)", res.Err, res.ExitCode)
			}
			if got != tc.want {
				t.Errorf("read returned %s, want %s", got, tc.want)
			}
			// The ring holds events in the order the tracer saw them.
			var enter, exit, buffered, readExit, writeEnter int
			for i, e := range res.Events {
				switch {
				case e.Num == int32(abi.SysWrite) && e.Kind == obs.KindSyscallEnter:
					writeEnter = i
				case e.Num != int32(abi.SysRead):
				case e.Kind == obs.KindSyscallEnter:
					enter++
				case e.Kind == obs.KindSyscallExit:
					exit++
					readExit = i
				case e.Kind == obs.KindBuffered:
					buffered++
				}
			}
			stops := res.Stats.StopsPerSyscall.Map()[abi.SysRead]
			want := [4]int64{0, 0, 1, 0}
			if tc.traced {
				want = [4]int64{1, 1, 0, 1}
			}
			if got := [4]int64{int64(enter), int64(exit), int64(buffered), stops}; got != want {
				t.Errorf("read events (enter, exit, buffered) and stops %v, want %v", got, want)
			}
			if tc.name == "parked pipe" && readExit <= writeEnter {
				t.Errorf("the read completed at event %d, before its writer wrote at event %d: it never parked", readExit, writeEnter)
			}
		})
	}
}

// Computing a verdict allocates nothing, the descriptor rule's fd lookup
// included: it runs once per call on the fast path.
func TestVerdictOfAllocatesNothing(t *testing.T) {
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	c := New(Config{Image: img})
	reg := guest.NewRegistry()
	reg.Register("main", func(p *guest.Proc) int {
		fd, _ := p.Open("/etc/hostname", abi.ORdonly, 0)
		for _, sc := range []abi.Syscall{
			{Num: abi.SysRead, Arg: [6]int64{int64(fd)}},
			{Num: abi.SysRead, Arg: [6]int64{0}},
			{Num: abi.SysOpen, Arg: [6]int64{abi.ORdonly}},
		} {
			if n := testing.AllocsPerRun(100, func() {
				call := sc
				c.verdictOf(p.T, &call)
			}); n != 0 {
				t.Errorf("%v(%d): %v allocations per verdict", sc.Num, sc.Arg[0], n)
			}
		}
		return 0
	})
	if res := c.Run(reg, "/bin/main", []string{"main"}, nil); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// A buffered read saves the stop, the handler and the drain, never the
// kernel's data copy: it costs the kernel entry, SyscallPerKB per KiB moved
// and the wrapper's record.
func TestBufferedReadPaysTheCopy(t *testing.T) {
	const kb = 256
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	img.AddFile("/tmp/big", 0o644, make([]byte, kb*1024))
	c := New(Config{Image: img})
	var got int64
	reg := guest.NewRegistry()
	reg.Register("main", func(p *guest.Proc) int {
		fd, _ := p.Open("/tmp/big", abi.ORdonly, 0)
		before := p.T.Clock
		p.Read(fd, make([]byte, kb*1024))
		got = p.T.Clock - before
		return 0
	})
	res := c.Run(reg, "/bin/main", []string{"main"}, nil)
	if res.Err != nil || res.Tracer.BufferedCalls != 2 {
		t.Fatalf("run failed or did not buffer the open and the read: %v, %d buffered", res.Err, res.Tracer.BufferedCalls)
	}
	if want := c.k.Cost.SyscallBase + kb*c.k.Cost.SyscallPerKB + c.sess.Costs.BufferRecord; got != want {
		t.Errorf("a buffered %d KiB read cost %d ns, want %d", kb, got, want)
	}
}
