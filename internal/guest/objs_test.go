package guest_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/baseimg"
	"repro/internal/core"
	"repro/internal/guest"
)

// The wrappers that hand the kernel an object (a stat buffer, a timespec, a
// cwd string) point Syscall.Obj into the handle's out-parameter record. These
// tests pin what that buys, a steady-state call that allocates nothing, and
// what it must not break: a signal handler's calls never clobber the call it
// interrupted.

const fetchURL = "https://example.org/src.tar"

var fetchData = []byte("tarball bytes")

// dettraceConfigs are the two shapes a traced call takes: the full DetTrace
// config, where the seccomp buffer services some calls in the tracee, and
// the syscall buffer off, where every call stops at the tracer.
var dettraceConfigs = []struct {
	name string
	off  core.Mechanisms
}{
	{"dettrace", 0},
	{"syscall-buffer off", core.Off(core.SyscallBuf)},
}

// allocs returns how many allocations a thousand calls of f make in all,
// so an allocation every few hundred calls shows too.
func allocs(f func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for range 1000 {
			f()
		}
	})
}

// runDetTrace runs prog as a DetTrace container's main program and fails
// the test unless it exits 0.
func runDetTrace(t *testing.T, off core.Mechanisms, prog guest.Program) *core.Result {
	t.Helper()
	img := baseimg.Minimal()
	img.AddFile("/bin/main", 0o755, guest.MakeExe("main", nil))
	img.AddFile("/data/blob", 0o644, bytes.Repeat([]byte("x"), 1000))
	img.AddFile("/data/small", 0o644, []byte("xy"))
	img.AddFile("/data/d/a", 0o644, []byte("a"))
	img.AddFile("/data/d/b", 0o644, []byte("b"))
	sum := sha256.Sum256(fetchData)
	reg := guest.NewRegistry()
	reg.Register("main", prog)
	res := core.New(core.Config{
		Image: img, Off: off,
		Downloads: map[string]core.Download{fetchURL: {Data: fetchData, SHA256: hex.EncodeToString(sum[:])}},
	}).Run(reg, "/bin/main", []string{"main"}, nil)
	if res.Err != nil || res.ExitCode != 0 {
		t.Fatalf("run: exit %d, err %v, stderr %q", res.ExitCode, res.Err, res.Stderr)
	}
	return res
}

// fillRing issues enough traced calls to fill the flight recorder's ring,
// which grows a chunk per 256 events until it holds its 8,192 and then
// reuses them: what a later measurement sees is the steady state, not the
// ring's first pass.
func fillRing(p *guest.Proc) {
	for range 10_000 {
		p.Stat("/")
	}
}

// TestWrappersAllocateNothing: after a warm-up call, each fixed-size wrapper
// costs no allocation at all, traced or buffered.
func TestWrappersAllocateNothing(t *testing.T) {
	for _, cfg := range dettraceConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			runDetTrace(t, cfg.off, func(p *guest.Proc) int {
				fd, err := p.Open("/data/blob", abi.ORdonly, 0)
				if err != abi.OK {
					return 1
				}
				fillRing(p)
				ts := abi.Timespec{Sec: 7}
				for _, c := range []struct {
					name string
					call func()
				}{
					{"Stat", func() { p.Stat("/data/blob") }},
					{"Lstat", func() { p.Lstat("/data/blob") }},
					{"Fstat", func() { p.Fstat(fd) }},
					{"Getcwd", func() { p.Getcwd() }},
					{"Utimes", func() { p.Utimes("/data/blob", ts, ts) }},
					{"ClockGettime", func() { p.ClockGettime() }},
					{"Gettimeofday", func() { p.Gettimeofday() }},
					{"Setitimer", func() { p.Setitimer(0, 0) }},
					{"Waitpid", func() { p.Waitpid(-1, abi.WNOHANG) }},
				} {
					c.call()
					if n := allocs(c.call); n != 0 {
						t.Errorf("%s: %v allocations per 1000 calls, want 0", c.name, n)
					}
				}
				return 0
			})
		})
	}
}

// TestWrappersAllocateOnlyTheCall: a wrapper whose call allocates by design
// (a pipe's buffer and descriptors, a directory listing, a download) adds no
// allocation of its own: a thousand calls cost what a thousand of the same
// call issued on the thread's record with a preallocated out object cost.
// These calls allocate enough to run the collector, and the runtime's own
// few allocations across a cycle land on either side, so the two counts
// may differ by a handful; a per-call object would add a thousand.
func TestWrappersAllocateOnlyTheCall(t *testing.T) {
	for _, cfg := range dettraceConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			runDetTrace(t, cfg.off, func(p *guest.Proc) int {
				var (
					fds   [2]int
					dents []abi.Dirent
					data  []byte
				)
				fillRing(p)
				raw := func(sc abi.Syscall) {
					p.T.Event = sc
					p.T.Syscall(&p.T.Event)
				}
				listDir := func(getdents func(fd int)) func() {
					return func() {
						fd, _ := p.Open("/data/d", abi.ORdonly|abi.ODirectory, 0)
						getdents(fd)
						p.Close(fd)
					}
				}
				for _, c := range []struct {
					name         string
					wrapped, raw func()
				}{
					{"Pipe",
						func() { r, w, _ := p.Pipe(); p.Close(r); p.Close(w) },
						func() { raw(abi.Syscall{Num: abi.SysPipe, Obj: &fds}); p.Close(fds[0]); p.Close(fds[1]) }},
					{"Getdents",
						listDir(func(fd int) { p.Getdents(fd, 0) }),
						listDir(func(fd int) {
							raw(abi.Syscall{Num: abi.SysGetdents, Arg: [6]int64{int64(fd)}, Obj: &dents})
							dents = nil
						})},
					{"Fetch",
						func() { p.Fetch(fetchURL) },
						func() { raw(abi.Syscall{Num: abi.SysFetch, Path: fetchURL, Obj: &data}); data = nil }},
				} {
					c.wrapped()
					c.raw()
					if w, r := allocs(c.wrapped), allocs(c.raw); w-r >= 100 {
						t.Errorf("%s: %v allocations per 1000 wrapped calls, %v per 1000 raw calls", c.name, w, r)
					}
				}
				if r, w, err := p.Pipe(); err != abi.OK || r == w {
					t.Errorf("Pipe = %d, %d, %v", r, w, err)
				}
				if ents, err := p.ReadDir("/data/d"); err != abi.OK || len(ents) != 2 {
					t.Errorf("ReadDir(/data/d) = %v, %v", ents, err)
				}
				if got, err := p.Fetch(fetchURL); err != abi.OK || !bytes.Equal(got, fetchData) {
					t.Errorf("Fetch = %q, %v", got, err)
				}
				return 0
			})
		})
	}
}

// TestHandlerCallsKeepTheirOwnAnswers: children exit one by one while
// their parent does nothing but Fstat one file, so each SIGCHLD handler runs
// at the return of an Fstat whose answer the wrapper has not copied out yet.
// The handler makes its own Fstat of another file and a Getcwd. Each caller
// must get its own answer: the interrupted Fstat the first file's size, the
// handler's the second's.
func TestHandlerCallsKeepTheirOwnAnswers(t *testing.T) {
	const children = 8
	for _, cfg := range dettraceConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			res := runDetTrace(t, cfg.off, func(p *guest.Proc) int {
				if p.Chdir("/data") != abi.OK {
					return 1
				}
				big, _ := p.Open("/data/blob", abi.ORdonly, 0)
				small, _ := p.Open("/data/small", abi.ORdonly, 0)
				handled, bad := 0, 0
				p.Signal(abi.SIGCHLD, func(h *guest.Proc, sig abi.Signal) {
					handled++
					st, err := h.Fstat(small)
					cwd, cerr := h.Getcwd()
					if err != abi.OK || st.Size != 2 || cerr != abi.OK || cwd != "/data" {
						bad++
					}
				})
				for i := 0; i < children; i++ {
					ns := int64(10_000 * (i + 1))
					if _, err := p.Fork(func(c *guest.Proc) int { c.Compute(ns); return 0 }); err != abi.OK {
						return 1
					}
				}
				for stats := 0; handled < children && stats < 1_000_000; stats++ {
					if st, err := p.Fstat(big); err != abi.OK || st.Size != 1000 {
						bad++
					}
				}
				for i := 0; i < children; i++ {
					p.Wait()
				}
				p.Printf("handled %d bad %d\n", handled, bad)
				return 0
			})
			if want := fmt.Sprintf("handled %d bad 0\n", children); res.Stdout != want {
				t.Errorf("stdout %q, want %q: every handler run, no answer crossed", res.Stdout, want)
			}
		})
	}
}
