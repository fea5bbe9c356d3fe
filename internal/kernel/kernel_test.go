package kernel_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// profFor and imgFor are the default profile/image for helper kernels.
func profFor() *machine.Profile { return machine.CloudLabC220G5() }
func imgFor() *fs.Image         { return baseimg.Minimal() }

// newKernel builds a kernel with the standard test setup.
func newKernel(t *testing.T, seed uint64, reg *guest.Registry) *kernel.Kernel {
	t.Helper()
	return kernel.Prepare(kernel.Config{
		Profile: profFor(), Image: imgFor(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: seed, Epoch: 1_500_000_000, Deadline: 3_600_000_000_000,
	})
}

// boot spins up a kernel with the minimal image and runs prog as init.
func boot(t *testing.T, seed uint64, prog guest.Program) (*kernel.Kernel, error) {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("init", prog)
	k := kernel.Prepare(kernel.Config{
		Profile: machine.CloudLabC220G5(), Image: baseimg.Minimal(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: seed, Epoch: 1_500_000_000, Deadline: int64(3_600_000_000_000), // 1h virtual
	})
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(prog, img), img.Argv, []string{"PATH=/bin"})
	return k, k.Run()
}

func mustRun(t *testing.T, seed uint64, prog guest.Program) *kernel.Kernel {
	t.Helper()
	k, err := boot(t, seed, prog)
	if err != nil {
		t.Fatalf("kernel run failed: %v", err)
	}
	return k
}

func TestWriteFileAndStdout(t *testing.T) {
	k := mustRun(t, 1, func(p *guest.Proc) int {
		p.Printf("hello %s\n", "world")
		if err := p.WriteFile("/tmp/out.txt", []byte("data"), 0o644); err != abi.OK {
			return 1
		}
		got, err := p.ReadFile("/tmp/out.txt")
		if err != abi.OK || string(got) != "data" {
			return 2
		}
		return 0
	})
	if got := k.Console.Stdout(); got != "hello world\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestForkWaitExitCode(t *testing.T) {
	mustRun(t, 2, func(p *guest.Proc) int {
		pid, err := p.Fork(func(c *guest.Proc) int { return 42 })
		if err != abi.OK {
			p.Eprintf("fork failed\n")
			return 1
		}
		wr, werr := p.Wait()
		if werr != abi.OK || wr.PID != pid || !wr.Status.Exited() || wr.Status.ExitCode() != 42 {
			p.Eprintf("wait mismatch: %+v %v\n", wr, werr)
			return 1
		}
		return 0
	})
}

func TestPipeBetweenProcesses(t *testing.T) {
	k := mustRun(t, 3, func(p *guest.Proc) int {
		r, w, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		p.Fork(func(c *guest.Proc) int {
			c.Close(r)
			c.WriteString(w, "through the pipe")
			c.Close(w)
			return 0
		})
		p.Close(w)
		var sb strings.Builder
		buf := make([]byte, 7) // force multiple short reads
		for {
			n, rerr := p.Read(r, buf)
			if rerr != abi.OK {
				return 2
			}
			if n == 0 {
				break
			}
			sb.Write(buf[:n])
		}
		p.Printf("%s", sb.String())
		p.Wait()
		return 0
	})
	if got := k.Console.Stdout(); got != "through the pipe" {
		t.Errorf("pipe content = %q", got)
	}
}

func TestExecveRunsRegisteredProgram(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("child", func(p *guest.Proc) int {
		p.Printf("child argv=%s env=%s\n", strings.Join(p.Argv(), ","), p.Getenv("MARK"))
		return 0
	})
	init := func(p *guest.Proc) int {
		if err := p.WriteFile("/bin/child", guest.MakeExe("child", nil), 0o755); err != abi.OK {
			return 1
		}
		pid, err := p.Spawn("/bin/child", []string{"child", "x"}, []string{"MARK=yes"})
		if err != abi.OK {
			return 2
		}
		wr, _ := p.Waitpid(pid, 0)
		return wr.Status.ExitCode()
	}
	reg.Register("init", init)
	k := kernel.Prepare(kernel.Config{
		Profile: machine.CloudLabC220G5(), Image: baseimg.Minimal(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: 4, Epoch: 1_500_000_000,
	})
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(init, img), img.Argv, nil)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := k.Console.Stdout(); got != "child argv=child,x env=yes\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestAlarmDeliversSignalHandler(t *testing.T) {
	k := mustRun(t, 5, func(p *guest.Proc) int {
		fired := false
		p.Signal(abi.SIGALRM, func(c *guest.Proc, sig abi.Signal) {
			fired = true
			c.Printf("alarm!\n")
		})
		p.Alarm(1)
		p.Pause()
		if !fired {
			return 1
		}
		return 0
	})
	if got := k.Console.Stdout(); got != "alarm!\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestThreadsAndFutex(t *testing.T) {
	mustRun(t, 6, func(p *guest.Proc) int {
		const flag = 0x100
		p.CloneThread(func(w *guest.Proc) int {
			w.Compute(1000)
			w.Store(flag, 1)
			w.FutexWake(flag, 1)
			return 0
		})
		for p.Load(flag) == 0 {
			if err := p.FutexWait(flag, 0); err != abi.OK && err != abi.EAGAIN && err != abi.EINTR {
				return 1
			}
		}
		return 0
	})
}

func TestKillDefaultTerminates(t *testing.T) {
	mustRun(t, 7, func(p *guest.Proc) int {
		pid, _ := p.Fork(func(c *guest.Proc) int {
			c.Pause()
			return 0
		})
		p.Compute(10_000)
		p.Kill(pid, abi.SIGTERM)
		wr, err := p.Waitpid(pid, 0)
		if err != abi.OK || !wr.Status.Signaled() || wr.Status.TermSignal() != abi.SIGTERM {
			return 1
		}
		return 0
	})
}

func TestNanosleepAdvancesClock(t *testing.T) {
	k := mustRun(t, 8, func(p *guest.Proc) int {
		before := p.Time()
		p.Nanosleep(3e9)
		after := p.Time()
		if after < before+2 {
			return 1
		}
		return 0
	})
	if k.Now() < 3e9 {
		t.Errorf("virtual time %d, want >= 3s", k.Now())
	}
}

func TestGetdentsOrderIsHashOrderPerMachine(t *testing.T) {
	list := func(seed uint64, prof *machine.Profile) string {
		reg := guest.NewRegistry()
		var order string
		prog := func(p *guest.Proc) int {
			for _, n := range []string{"zeta", "alpha", "mid", "beta", "omega", "kappa"} {
				p.WriteFile("/tmp/"+n, []byte(n), 0o644)
			}
			ents, _ := p.ReadDir("/tmp")
			names := make([]string, len(ents))
			for i, e := range ents {
				names[i] = e.Name
			}
			order = strings.Join(names, ",")
			return 0
		}
		reg.Register("init", prog)
		k := kernel.Prepare(kernel.Config{
			Profile: prof, Image: baseimg.Minimal(), Resolver: reg.Resolver(),
		}).Boot(kernel.BootConfig{
			Seed: seed, Epoch: 1_500_000_000,
		})
		img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
		k.Start(reg.Bind(prog, img), img.Argv, nil)
		if err := k.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return order
	}
	skylake := machine.CloudLabC220G5()
	broadwell := machine.PortabilityBroadwell()
	// Same machine, two boots: ext4-style hash order is stable.
	if a, b := list(100, skylake), list(200, skylake); a != b {
		t.Errorf("directory order varies across boots of one machine: %q vs %q", a, b)
	}
	// Different machines: different mkfs salt, different order, and never
	// plain sorted order.
	a, b := list(100, skylake), list(100, broadwell)
	if a == b {
		t.Errorf("directory order identical across machines: %q", a)
	}
	if a == "alpha,beta,kappa,mid,omega,zeta" {
		t.Errorf("host order is accidentally sorted: %q", a)
	}
}

func TestStatTimestampsComeFromHostClock(t *testing.T) {
	var mtimes [2]int64
	for i, seed := range []uint64{11, 12} {
		mustRun(t, seed, func(p *guest.Proc) int {
			p.WriteFile("/tmp/f", []byte("x"), 0o644)
			st, _ := p.Stat("/tmp/f")
			mtimes[i] = st.Mtime.Nanos()
			return 0
		})
	}
	if mtimes[0] == mtimes[1] {
		t.Skip("timestamps coincided; jitter too small for these seeds")
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := boot(t, 13, func(p *guest.Proc) int {
		p.FutexWait(0x1, 0) // nobody will ever wake this
		return 0
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSocketsWorkInBaseline(t *testing.T) {
	k := mustRun(t, 14, func(p *guest.Proc) int {
		srv, _ := p.Socket()
		p.Bind(srv, "/tmp/sock")
		p.Listen(srv)
		p.Fork(func(c *guest.Proc) int {
			fd, _ := c.Socket()
			if err := c.Connect(fd, "/tmp/sock"); err != abi.OK {
				return 1
			}
			c.Send(fd, []byte("ping"))
			c.Close(fd)
			return 0
		})
		conn, err := p.Accept(srv)
		if err != abi.OK {
			return 2
		}
		buf := make([]byte, 16)
		n, _ := p.Recv(conn, buf)
		p.Printf("got %s", buf[:n])
		p.Wait()
		return 0
	})
	if got := k.Console.Stdout(); got != "got ping" {
		t.Errorf("stdout = %q", got)
	}
}

func TestRdtscAndCpuid(t *testing.T) {
	mustRun(t, 15, func(p *guest.Proc) int {
		a := p.Rdtsc()
		p.Compute(1000)
		b := p.Rdtsc()
		if b <= a {
			return 1
		}
		leaf := p.Cpuid(1)
		if leaf.Leaf.EAX == 0 {
			return 2
		}
		if _, ok := p.Rdrand(); !ok {
			return 3
		}
		return 0
	})
}

func TestUnameReportsHostKernel(t *testing.T) {
	mustRun(t, 16, func(p *guest.Proc) int {
		u := p.Uname()
		if u.Sysname != "Linux" || !strings.HasPrefix(u.Release, "4.15") {
			return 1
		}
		return 0
	})
}

func TestExitStatusPropagation(t *testing.T) {
	k, err := boot(t, 17, func(p *guest.Proc) int {
		p.Exit(3)
		return 0 // unreachable
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	_ = k
}

// FDPath reports the normalized absolute path a descriptor was opened with,
// against the working directory at open time, not the current one.
func TestFDPathNormalizesOpenTimePath(t *testing.T) {
	reg := guest.NewRegistry()
	var k *kernel.Kernel
	var got []string
	prog := func(p *guest.Proc) int {
		p.Chdir("/tmp")
		var fds []int
		for _, path := range []string{"../etc/./hostname", "/dev//null", "."} {
			fd, err := p.Open(path, abi.ORdonly, 0)
			if err != abi.OK {
				t.Errorf("open %q: %v", path, err)
				return 1
			}
			fds = append(fds, fd)
		}
		p.Chdir("/")
		for _, fd := range append(fds, 1) {
			path, err := k.FDPath(p.T.Proc, fd)
			if err != abi.OK {
				t.Errorf("FDPath(%d): %v", fd, err)
			}
			got = append(got, path)
		}
		return 0
	}
	reg.Register("init", prog)
	k = newKernel(t, 1, reg)
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(prog, img), img.Argv, []string{"PATH=/bin"})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"/etc/hostname", "/dev/null", "/tmp", ""}; !slices.Equal(got, want) {
		t.Errorf("FDPath = %q, want %q", got, want)
	}
}
