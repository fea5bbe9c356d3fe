package kernel_test

import (
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/guest"
	"repro/internal/kernel"
)

func TestLseekAndAppend(t *testing.T) {
	mustRun(t, 30, func(p *guest.Proc) int {
		fd, _ := p.Open("/tmp/f", abi.OCreat|abi.ORdwr, 0o644)
		p.Write(fd, []byte("0123456789"))
		if off, _ := p.Lseek(fd, 2, abi.SeekSet); off != 2 {
			return 1
		}
		buf := make([]byte, 3)
		p.Read(fd, buf)
		if string(buf) != "234" {
			return 2
		}
		if off, _ := p.Lseek(fd, -2, abi.SeekEnd); off != 8 {
			return 3
		}
		if off, _ := p.Lseek(fd, 1, abi.SeekCur); off != 9 {
			return 4
		}
		if _, err := p.Lseek(fd, -100, abi.SeekSet); err != abi.EINVAL {
			return 5
		}
		p.Close(fd)
		// O_APPEND writes land at the end regardless of position.
		afd, _ := p.Open("/tmp/f", abi.OWronly|abi.OAppend, 0)
		p.Write(afd, []byte("END"))
		p.Close(afd)
		data, _ := p.ReadFile("/tmp/f")
		if string(data) != "0123456789END" {
			return 6
		}
		return 0
	})
}

func TestDup2SharesFileDescription(t *testing.T) {
	mustRun(t, 31, func(p *guest.Proc) int {
		fd, _ := p.Open("/tmp/f", abi.OCreat|abi.OWronly, 0o644)
		if err := p.Dup2(fd, 9); err != abi.OK {
			return 1
		}
		p.Write(fd, []byte("ab"))
		p.Write(9, []byte("cd")) // shared offset: continues, not overwrites
		p.Close(fd)
		p.Write(9, []byte("ef")) // still open through the dup
		p.Close(9)
		data, _ := p.ReadFile("/tmp/f")
		if string(data) != "abcdef" {
			p.Eprintf("content=%q\n", data)
			return 2
		}
		return 0
	})
}

func TestOpenFlagsSemantics(t *testing.T) {
	mustRun(t, 32, func(p *guest.Proc) int {
		p.WriteFile("/tmp/f", []byte("old"), 0o644)
		if _, err := p.Open("/tmp/f", abi.OCreat|abi.OExcl, 0o644); err != abi.EEXIST {
			return 1
		}
		fd, _ := p.Open("/tmp/f", abi.OWronly|abi.OTrunc, 0)
		p.Close(fd)
		st, _ := p.Stat("/tmp/f")
		if st.Size != 0 {
			return 2
		}
		if _, err := p.Open("/tmp/f", abi.ORdonly|abi.ODirectory, 0); err != abi.ENOTDIR {
			return 3
		}
		if _, err := p.Open("/missing/deep", abi.OCreat, 0o644); err != abi.ENOENT {
			return 4
		}
		return 0
	})
}

func TestExitGroupKillsSiblingThreads(t *testing.T) {
	k := mustRun(t, 33, func(p *guest.Proc) int {
		p.CloneThread(func(w *guest.Proc) int {
			w.FutexWait(0x99, 0) // parked forever
			return 0
		})
		p.Compute(10_000)
		p.Printf("done")
		return 0 // main thread returns; the process exits, killing the waiter
	})
	if got := k.Console.Stdout(); got != "done" {
		t.Errorf("stdout = %q", got)
	}
}

func TestSIGPIPEKillsWriter(t *testing.T) {
	mustRun(t, 34, func(p *guest.Proc) int {
		pid, _ := p.Fork(func(c *guest.Proc) int {
			r, w, _ := c.Pipe()
			c.Close(r) // no readers anywhere
			c.Write(w, []byte("doomed"))
			return 0 // unreachable: SIGPIPE default kills
		})
		wr, _ := p.Waitpid(pid, 0)
		if !wr.Status.Signaled() || wr.Status.TermSignal() != abi.SIGPIPE {
			p.Eprintf("status=%v\n", wr.Status)
			return 1
		}
		return 0
	})
}

func TestEINTRAndHandlerOnBlockedRead(t *testing.T) {
	k := mustRun(t, 35, func(p *guest.Proc) int {
		p.Signal(abi.SIGALRM, func(c *guest.Proc, s abi.Signal) { c.Printf("rang ") })
		r, _, _ := p.Pipe()
		p.Alarm(1)
		buf := make([]byte, 8)
		_, err := p.Read(r, buf) // blocks until the alarm interrupts
		p.Printf("err=%s", err)
		return 0
	})
	if got := k.Console.Stdout(); got != "rang err=EINTR" {
		t.Errorf("stdout = %q", got)
	}
}

func TestWaitpidSpecificChild(t *testing.T) {
	mustRun(t, 36, func(p *guest.Proc) int {
		pid1, _ := p.Fork(func(c *guest.Proc) int { c.Compute(5000); return 1 })
		pid2, _ := p.Fork(func(c *guest.Proc) int { return 2 })
		wr, err := p.Waitpid(pid2, 0)
		if err != abi.OK || wr.PID != pid2 || wr.Status.ExitCode() != 2 {
			return 1
		}
		wr, err = p.Waitpid(pid1, 0)
		if err != abi.OK || wr.Status.ExitCode() != 1 {
			return 2
		}
		if _, err := p.Wait(); err != abi.ECHILD {
			return 3
		}
		return 0
	})
}

func TestWNOHANG(t *testing.T) {
	mustRun(t, 37, func(p *guest.Proc) int {
		pid, _ := p.Fork(func(c *guest.Proc) int {
			c.Compute(1_000_000)
			return 0
		})
		wr, err := p.Waitpid(-1, abi.WNOHANG)
		if err != abi.OK || wr.PID != 0 {
			return 1 // child is still computing: must not block
		}
		p.Waitpid(pid, 0)
		return 0
	})
}

func TestOrphanReparenting(t *testing.T) {
	mustRun(t, 38, func(p *guest.Proc) int {
		p.Fork(func(c *guest.Proc) int {
			c.Fork(func(g *guest.Proc) int { // grandchild outlives its parent
				g.Compute(50_000)
				return 0
			})
			return 0 // parent exits immediately
		})
		p.Wait() // reap the child; the orphan must not deadlock the kernel
		return 0
	})
}

func TestGetcwdTracksChdir(t *testing.T) {
	k := mustRun(t, 39, func(p *guest.Proc) int {
		p.MkdirAll("/a/b", 0o755)
		p.Chdir("/a")
		p.Chdir("b")
		cwd, _ := p.Getcwd()
		p.Printf("%s", cwd)
		p.Chdir("..")
		cwd, _ = p.Getcwd()
		p.Printf(" %s", cwd)
		return 0
	})
	if got := k.Console.Stdout(); got != "/a/b /a" {
		t.Errorf("cwd = %q", got)
	}
}

func TestCwdInheritedAcrossForkAndExec(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("pwd", func(p *guest.Proc) int {
		cwd, _ := p.Getcwd()
		p.Printf("%s", cwd)
		return 0
	})
	init := func(p *guest.Proc) int {
		p.MkdirAll("/work/here", 0o755)
		p.Chdir("/work/here")
		p.WriteFile("/bin/pwd", guest.MakeExe("pwd", nil), 0o755)
		pid, _ := p.Spawn("/bin/pwd", []string{"pwd"}, nil)
		p.Waitpid(pid, 0)
		return 0
	}
	reg.Register("init", init)
	k := newKernel(t, 40, reg)
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(init, img), img.Argv, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Console.Stdout(); got != "/work/here" {
		t.Errorf("child cwd = %q", got)
	}
}

func TestBrkAndMmapAddressesVaryAcrossBoots(t *testing.T) {
	grab := func(seed uint64) string {
		var out string
		mustRun(t, seed, func(p *guest.Proc) int {
			out = strings.TrimSpace(
				string(rune('0')) + ":" +
					itoa(p.Mmap(4096)) + ":" + itoa(p.Brk(4096)))
			return 0
		})
		return out
	}
	if grab(41) == grab(42) {
		t.Errorf("ASLR addresses identical across boots")
	}
}

func TestFutexWakeCount(t *testing.T) {
	mustRun(t, 43, func(p *guest.Proc) int {
		if n := p.FutexWake(0x1, 8); n != 0 {
			return 1 // nobody waiting
		}
		return 0
	})
}

func TestSchedYieldAndSync(t *testing.T) {
	mustRun(t, 44, func(p *guest.Proc) int {
		p.SchedYield()
		p.T.Syscall(&abi.Syscall{Num: abi.SysSync})
		return 0
	})
}

func TestRunawayBudgetStopsInfiniteLoops(t *testing.T) {
	reg := guest.NewRegistry()
	prog := func(p *guest.Proc) int {
		for {
			p.SchedYield()
		}
	}
	reg.Register("init", prog)
	k := kernel.Prepare(kernel.Config{
		Profile: profFor(), Image: imgFor(), Resolver: reg.Resolver(),
	}).Boot(kernel.BootConfig{
		Seed: 45, Epoch: 1_500_000_000, MaxActions: 10_000,
	})
	img := &kernel.ExecImage{Path: "/bin/init", Argv: []string{"init"}}
	k.Start(reg.Bind(prog, img), img.Argv, nil)
	if err := k.Run(); err != kernel.ErrRunaway {
		t.Fatalf("err = %v, want ErrRunaway", err)
	}
}

func itoa(v int64) string {
	// tiny helper for the test; fmt would be fine too
	if v == 0 {
		return "0"
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
