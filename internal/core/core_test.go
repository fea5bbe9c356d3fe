package core_test

import (
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hashdeep"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// host is one simulated physical environment: the things DetTrace must hide.
type host struct {
	profile *machine.Profile
	seed    uint64
	epoch   int64
	numCPU  int
}

var hostA = host{machine.CloudLabC220G5(), 0xAAAA, 1_520_000_000, 0}
var hostB = host{machine.PortabilityBroadwell(), 0xB0B0, 1_545_999_999, 8}

func profileLegacy() *machine.Profile { return machine.LegacySandyBridge() }

// runDT executes prog under DetTrace on the given host and returns the
// result.
func runDT(t *testing.T, h host, cfg core.Config, prog guest.Program) *core.Result {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	cfg.Image = img
	cfg.Profile = h.profile
	cfg.HostSeed = h.seed
	cfg.Epoch = h.epoch
	cfg.NumCPU = h.numCPU
	if cfg.Deadline == 0 {
		cfg.Deadline = 3_600_000_000_000
	}
	c := core.New(cfg)
	return c.Run(reg, "/bin/main", []string{"main"}, []string{"PATH=/bin"})
}

func TestLogicalTimeMatchesArtifactDemo(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		p.Printf("%d\n", p.Time())
		return 0
	})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	// First time call returns the fixed logical epoch: Aug 8 1993 22:00 UTC.
	if got := strings.TrimSpace(res.Stdout); got != "744847200" {
		t.Errorf("time = %s, want 744847200", got)
	}
}

func TestTimeIsMonotone(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		a, b, c := p.Time(), p.Time(), p.Time()
		if !(a < b && b < c) {
			p.Printf("not monotone: %d %d %d\n", a, b, c)
			return 1
		}
		return 0
	})
	if res.ExitCode != 0 {
		t.Errorf("guest reported: %s", res.Stdout)
	}
}

func TestStatVirtualization(t *testing.T) {
	// Mirrors the artifact appendix demo: stat of a fresh file shows
	// device 1, a tiny inode, IO block 512, and 1970 timestamps.
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		p.WriteFile("/tmp/foo.txt", nil, 0o644)
		st, err := p.Stat("/tmp/foo.txt")
		if err != abi.OK {
			return 1
		}
		p.Printf("dev=%d ino=%d blksize=%d atime=%d mtime=%d ctime=%d\n",
			st.Dev, st.Ino, st.Blksize, st.Atime.Sec, st.Mtime.Sec, st.Ctime.Sec)
		return 0
	})
	out := strings.TrimSpace(res.Stdout)
	if !strings.HasPrefix(out, "dev=1 ino=") || !strings.Contains(out, "blksize=512") ||
		!strings.Contains(out, "atime=0") || !strings.Contains(out, "ctime=0") {
		t.Errorf("stat output = %q", out)
	}
	// The new file's mtime is a small creation counter, not wall time.
	if !strings.Contains(out, "mtime=1") && !strings.Contains(out, "mtime=2") {
		t.Errorf("virtual mtime not creation-ordered: %q", out)
	}
}

func TestInitialImageFilesHaveMtimeZero(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		st, err := p.Stat("/etc/hostname")
		if err != abi.OK {
			return 1
		}
		p.Printf("mtime=%d\n", st.Mtime.Sec)
		return 0
	})
	if got := strings.TrimSpace(res.Stdout); got != "mtime=0" {
		t.Errorf("image file mtime = %s, want 0", got)
	}
}

func TestConfigureClockSkewCheckPasses(t *testing.T) {
	// GNU autotools configure creates a file and requires its mtime to be
	// >= an existing file's (§5.5). Virtual mtimes must satisfy it.
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		old, _ := p.Stat("/etc/hostname")
		p.WriteFile("/tmp/conftest", []byte("x"), 0o644)
		fresh, _ := p.Stat("/tmp/conftest")
		if fresh.Mtime.Nanos() <= old.Mtime.Nanos() {
			p.Eprintf("clock skew detected!\n")
			return 1
		}
		return 0
	})
	if res.ExitCode != 0 {
		t.Errorf("configure-style check failed: %s", res.Stderr)
	}
}

func TestGetdentsSortedAndVirtualInodes(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		for _, n := range []string{"zz", "aa", "mm", "bb"} {
			p.WriteFile("/tmp/"+n, []byte(n), 0o644)
		}
		ents, _ := p.ReadDir("/tmp")
		for _, e := range ents {
			p.Printf("%s:%d ", e.Name, e.Ino)
		}
		return 0
	})
	out := strings.TrimSpace(res.Stdout)
	fields := strings.Fields(out)
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = strings.Split(f, ":")[0]
	}
	if strings.Join(names, ",") != "aa,bb,mm,zz" {
		t.Errorf("getdents not sorted: %q", out)
	}
	for _, f := range fields {
		ino := strings.Split(f, ":")[1]
		if len(ino) > 3 {
			t.Errorf("inode %s not virtualized (too large): %q", ino, out)
		}
	}
}

func TestUrandomFromSeededPRNG(t *testing.T) {
	read := func(seed uint64, h host) string {
		res := runDT(t, h, core.Config{PRNGSeed: seed}, func(p *guest.Proc) int {
			buf := make([]byte, 8)
			fd, _ := p.Open("/dev/urandom", abi.ORdonly, 0)
			p.Read(fd, buf)
			p.Close(fd)
			p.Printf("%x", buf)
			return 0
		})
		return res.Stdout
	}
	if a, b := read(7, hostA), read(7, hostB); a != b {
		t.Errorf("same PRNG seed gave different bytes across hosts: %s vs %s", a, b)
	}
	if a, b := read(7, hostA), read(8, hostA); a == b {
		t.Errorf("different PRNG seeds gave identical bytes: %s", a)
	}
}

func TestGetrandomEmulated(t *testing.T) {
	read := func(h host) string {
		res := runDT(t, h, core.Config{PRNGSeed: 3}, func(p *guest.Proc) int {
			buf := make([]byte, 16)
			p.GetRandom(buf)
			p.Printf("%x", buf)
			return 0
		})
		return res.Stdout
	}
	if a, b := read(hostA), read(hostB); a != b {
		t.Errorf("getrandom differs across hosts: %s vs %s", a, b)
	}
}

func TestVirtualPIDsStartAtOne(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		p.Printf("self=%d ppid=%d ", p.Getpid(), p.Getppid())
		pid, _ := p.Fork(func(c *guest.Proc) int {
			c.Printf("child-sees=%d ", c.Getpid())
			return 0
		})
		p.Waitpid(pid, 0)
		p.Printf("child=%d", pid)
		return 0
	})
	out := res.Stdout
	if !strings.Contains(out, "self=1") || !strings.Contains(out, "ppid=0") ||
		!strings.Contains(out, "child=2") || !strings.Contains(out, "child-sees=2") {
		t.Errorf("pid namespace output = %q", out)
	}
}

func TestUnameMasked(t *testing.T) {
	res := runDT(t, hostB, core.Config{}, func(p *guest.Proc) int {
		u := p.Uname()
		p.Printf("%s %s %s", u.Nodename, u.Release, u.Machine)
		return 0
	})
	if res.Stdout != "dettrace 4.0.0-dettrace x86_64" {
		t.Errorf("uname = %q", res.Stdout)
	}
}

func TestSysinfoReportsUniprocessor(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		si := p.Sysinfo()
		p.Printf("cpus=%d ram=%d", si.NumCPU, si.TotalRAM>>30)
		return 0
	})
	if res.Stdout != "cpus=1 ram=4" {
		t.Errorf("sysinfo = %q", res.Stdout)
	}
}

func TestSocketAborts(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		p.Socket()
		return 0
	})
	if op, ok := res.Unsupported(); !ok || op != "socket" {
		t.Errorf("expected socket unsupported abort, got %v", res.Err)
	}
}

func TestCrossProcessSignalAborts(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		pid, _ := p.Fork(func(c *guest.Proc) int {
			c.Compute(1_000_000)
			return 0
		})
		p.Kill(pid, abi.SIGTERM)
		p.Waitpid(pid, 0)
		return 0
	})
	if op, ok := res.Unsupported(); !ok || op != "cross-process signal" {
		t.Errorf("expected cross-process signal abort, got %v", res.Err)
	}
}

func TestSelfSignalAllowed(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		got := false
		p.Signal(abi.SIGUSR1, func(c *guest.Proc, s abi.Signal) { got = true })
		p.Kill(p.Getpid(), abi.SIGUSR1)
		if !got {
			return 1
		}
		return 0
	})
	if res.Err != nil || res.ExitCode != 0 {
		t.Errorf("self signal failed: err=%v code=%d", res.Err, res.ExitCode)
	}
}

func TestAlarmExpiresInstantly(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		fired := false
		p.Signal(abi.SIGALRM, func(c *guest.Proc, s abi.Signal) { fired = true })
		// An hour of real time — but under DetTrace the timer call is
		// converted and the signal delivered "instantaneously", so the
		// handler has run by the time alarm returns (§5.4).
		p.Alarm(3600)
		if !fired {
			return 1
		}
		return 0
	})
	if res.Err != nil || res.ExitCode != 0 {
		t.Fatalf("alarm run: err=%v code=%d", res.Err, res.ExitCode)
	}
	if res.WallTime > 600_000_000_000 {
		t.Errorf("alarm took %d ns of virtual time; should be instant", res.WallTime)
	}
}

func TestNanosleepBecomesNop(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		p.Nanosleep(3600 * 1e9)
		return 0
	})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if res.WallTime > 1e9 {
		t.Errorf("sleep was not NOP'd: %d ns", res.WallTime)
	}
}

func TestBusyWaitDetected(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		const flag = 0x10
		p.CloneThread(func(w *guest.Proc) int {
			w.Eprintf("worker up\n") // syscall: hands the token back
			w.Compute(1000)          // starved: main never yields the token again
			w.Store(flag, 1)
			return 0
		})
		for p.Load(flag) == 0 {
			p.Compute(100) // spin without a syscall: never yields the token
		}
		return 0
	})
	if op, ok := res.Unsupported(); !ok || op != "busy-wait" {
		t.Errorf("expected busy-wait abort, got %v", res.Err)
	}
}

func TestFutexThreadsWorkSerialized(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		const flag = 0x20
		p.CloneThread(func(w *guest.Proc) int {
			w.Compute(10_000)
			w.Store(flag, 1)
			w.FutexWake(flag, 1)
			return 0
		})
		for p.Load(flag) == 0 {
			p.FutexWait(flag, 0)
		}
		return 0
	})
	if res.Err != nil || res.ExitCode != 0 {
		t.Errorf("futex run: err=%v code=%d", res.Err, res.ExitCode)
	}
}

func TestReadRetryFillsBuffer(t *testing.T) {
	// Fig. 4: a read of 8 bytes that the kernel would satisfy with 7 must
	// appear to the tracee as one complete 8-byte read.
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		r, w, _ := p.Pipe()
		p.Fork(func(c *guest.Proc) int {
			c.Write(w, []byte("seven77")) // 7 bytes
			c.Compute(50_000)
			c.Write(w, []byte("!"))
			c.Close(w)
			return 0
		})
		p.Close(w)
		buf := make([]byte, 8)
		n, err := p.Read(r, buf)
		if err != abi.OK || n != 8 {
			p.Eprintf("read = %d (%v)\n", n, err)
			return 1
		}
		p.Printf("%s", buf)
		p.Wait()
		return 0
	})
	if res.Err != nil || res.ExitCode != 0 {
		t.Fatalf("retry run: err=%v code=%d stderr=%s", res.Err, res.ExitCode, res.Stderr)
	}
	if res.Stdout != "seven77!" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	if res.Stats.ReadRetries == 0 {
		t.Errorf("expected read retries to be counted")
	}
}

func TestWriteRetryCompletesPartialWrite(t *testing.T) {
	// Fig. 4 for writes: 2,000 bytes into a 512-byte pipe go through in
	// pieces, but the tracee sees one complete write.
	const size = 2000
	res := runDT(t, hostA, core.Config{}, func(p *guest.Proc) int {
		r, w, _ := p.Pipe()
		p.Fork(func(c *guest.Proc) int {
			c.Close(w)
			buf := make([]byte, 256)
			got := 0
			for {
				n, err := c.Read(r, buf)
				if err != abi.OK || n == 0 {
					break
				}
				for i, b := range buf[:n] {
					if b != byte((got+i)%251) {
						return 1
					}
				}
				got += n
			}
			c.Printf("reader got %d\n", got)
			return 0
		})
		p.Close(r)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i % 251)
		}
		n, err := p.Write(w, data)
		p.Close(w)
		wr, _ := p.Wait()
		p.Printf("wrote %d (%v), reader exit %d\n", n, err, wr.Status.ExitCode())
		return 0
	})
	if res.Err != nil || res.ExitCode != 0 {
		t.Fatalf("run: err=%v code=%d stderr=%s", res.Err, res.ExitCode, res.Stderr)
	}
	if want := "reader got 2000\nwrote 2000 (OK), reader exit 0\n"; res.Stdout != want {
		t.Errorf("stdout = %q, want %q", res.Stdout, want)
	}
	if res.Stats.WriteRetries == 0 {
		t.Errorf("expected write retries to be counted")
	}
}

func TestRdtscLinearAndCpuidMasked(t *testing.T) {
	run := func(h host) string {
		res := runDT(t, h, core.Config{}, func(p *guest.Proc) int {
			a := p.Rdtsc()
			b := p.Rdtsc()
			l := p.Cpuid(1)
			l7 := p.Cpuid(7)
			p.Printf("a=%d b=%d cores=%d tsx=%d", a, b, l.Leaf.EBX>>16, l7.Leaf.EBX)
			return 0
		})
		if res.Stats.RdtscTrapped == 0 {
			t.Errorf("rdtsc was not trapped")
		}
		return res.Stdout
	}
	a, b := run(hostA), run(hostB)
	if a != b {
		t.Errorf("instruction results differ across hosts: %q vs %q", a, b)
	}
	if !strings.Contains(a, "cores=1") || !strings.Contains(a, "tsx=0") {
		t.Errorf("cpuid not masked: %q", a)
	}
}

// messyProgram exercises nearly every nondeterminism source at once.
func messyProgram(p *guest.Proc) int {
	p.Printf("time=%d pid=%d ppid=%d\n", p.Time(), p.Getpid(), p.Getppid())
	buf := make([]byte, 6)
	p.GetRandom(buf)
	p.Printf("rand=%x tsc=%d\n", buf, p.Rdtsc())
	p.Printf("host=%s cpus=%d\n", p.Uname().Nodename, p.Sysinfo().NumCPU)
	p.Printf("mmap=%#x\n", p.Mmap(4096)) // ASLR base: pinned under DetTrace
	for _, n := range []string{"gamma", "alpha", "beta"} {
		p.WriteFile("/tmp/"+n, []byte(n), 0o644)
	}
	ents, _ := p.ReadDir("/tmp")
	for _, e := range ents {
		st, _ := p.Stat("/tmp/" + e.Name)
		p.Printf("%s ino=%d mtime=%d\n", e.Name, st.Ino, st.Mtime.Sec)
	}
	dst, _ := p.Stat("/tmp")
	p.Printf("dirsize=%d\n", dst.Size)
	// Parallel children racing on a shared log: order must be the
	// scheduler's deterministic order.
	var pids []int
	for i := 0; i < 3; i++ {
		id := i
		pid, _ := p.Fork(func(c *guest.Proc) int {
			c.Compute(int64(1000 * (3 - id)))
			c.AppendFile("/tmp/log", []byte{byte('A' + id)}, 0o644)
			return id
		})
		pids = append(pids, pid)
	}
	for range pids {
		wr, _ := p.Wait()
		p.Printf("reaped=%d code=%d\n", wr.PID, wr.Status.ExitCode())
	}
	log, _ := p.ReadFile("/tmp/log")
	p.Printf("log=%s\n", log)
	return 0
}

func TestEndToEndDeterminismAcrossHosts(t *testing.T) {
	a := runDT(t, hostA, core.Config{PRNGSeed: 42}, messyProgram)
	b := runDT(t, hostB, core.Config{PRNGSeed: 42}, messyProgram)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if a.Stdout != b.Stdout {
		t.Errorf("stdout differs across hosts:\n--- hostA ---\n%s--- hostB ---\n%s", a.Stdout, b.Stdout)
	}
	ha := hashdeep.HashSubtree(a.FS, "/tmp").Total()
	hb := hashdeep.HashSubtree(b.FS, "/tmp").Total()
	if ha != hb {
		t.Errorf("filesystem state differs across hosts")
	}
}

func TestBaselineBehaviorIsActuallyNondeterministic(t *testing.T) {
	// Sanity: the same messy program outside DetTrace differs across hosts;
	// otherwise the meta-test above proves nothing.
	if a, b := runBaseline(t, hostA, messyProgram), runBaseline(t, hostB, messyProgram); a == b {
		t.Errorf("baseline runs identical across hosts — nondeterminism model broken")
	}
}

func TestNoSeccompSameResultsSlower(t *testing.T) {
	prog := func(p *guest.Proc) int {
		for i := 0; i < 200; i++ {
			p.WriteFile("/tmp/f", []byte("x"), 0o644)
			p.Stat("/tmp/f")
			p.Unlink("/tmp/f")
		}
		return 0
	}
	fast := runDT(t, hostA, core.Config{}, prog)
	slow := runDT(t, hostA, core.Config{DisableSeccomp: true}, prog)
	if fast.Err != nil || slow.Err != nil {
		t.Fatalf("runs failed: %v / %v", fast.Err, slow.Err)
	}
	if slow.WallTime <= fast.WallTime {
		t.Errorf("no-seccomp (%d ns) should be slower than seccomp (%d ns)", slow.WallTime, fast.WallTime)
	}
}

func TestTimeoutClassification(t *testing.T) {
	res := runDT(t, hostA, core.Config{Deadline: 1_000_000}, func(p *guest.Proc) int {
		for {
			p.Compute(1_000_000)
			p.SchedYield()
		}
	})
	if !res.TimedOut() {
		t.Errorf("expected timeout, got %v", res.Err)
	}
}

// runBaseline runs prog on the raw kernel (no tracer) and returns a
// fingerprint of its observable behaviour.
func runBaseline(t *testing.T, h host, prog guest.Program) string {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	k := kernel.New(kernel.Config{
		Profile:  h.profile,
		Seed:     h.seed,
		Epoch:    h.epoch,
		NumCPU:   h.numCPU,
		Image:    img,
		Resolver: reg.Resolver(),
		Deadline: 3_600_000_000_000,
	})
	execImg := &kernel.ExecImage{Path: "/bin/main", Argv: []string{"main"}}
	k.Start(reg.Bind(prog, execImg), execImg.Argv, []string{"PATH=/bin"})
	if err := k.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	rep := hashdeep.HashSubtree(k.FS.SnapshotImage(k.FS.Root), "/tmp")
	return k.Console.Stdout() + "|" + rep.Total()
}
