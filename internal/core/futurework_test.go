package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/guest"
)

// These tests cover the extensions beyond the paper's prototype — each one a
// future-work item the paper sketches (§3, §5.3, §5.4, §5.9).

func TestFastVdsoSameResultsLessTime(t *testing.T) {
	prog := func(p *guest.Proc) int {
		for i := 0; i < 500; i++ {
			p.Printf("%d ", p.VdsoNow()/1e9)
		}
		return 0
	}
	slow := runDT(t, hostA, core.Config{}, prog)
	fast := runDT(t, hostA, core.Config{FastVdso: true}, prog)
	if slow.Err != nil || fast.Err != nil {
		t.Fatalf("runs failed: %v / %v", slow.Err, fast.Err)
	}
	if fast.Stdout != slow.Stdout {
		t.Errorf("fast vDSO changed results")
	}
	if fast.WallTime >= slow.WallTime {
		t.Errorf("fast vDSO not faster: %d vs %d ns", fast.WallTime, slow.WallTime)
	}
	// And still portable.
	other := runDT(t, hostB, core.Config{FastVdso: true}, prog)
	if other.Stdout != fast.Stdout {
		t.Errorf("fast vDSO not reproducible across hosts")
	}
}

func socketWorkload(p *guest.Proc) int {
	srv, err := p.Socket()
	if err != abi.OK {
		return 1
	}
	p.Bind(srv, "/tmp/ipc")
	p.Listen(srv)
	p.Fork(func(c *guest.Proc) int {
		fd, _ := c.Socket()
		if err := c.Connect(fd, "/tmp/ipc"); err != abi.OK {
			return 1
		}
		c.Send(fd, []byte("job-42"))
		buf := make([]byte, 16)
		n, _ := c.Recv(fd, buf)
		c.Printf("client got %s\n", buf[:n])
		c.Close(fd)
		return 0
	})
	conn, aerr := p.Accept(srv)
	if aerr != abi.OK {
		return 2
	}
	buf := make([]byte, 16)
	n, _ := p.Recv(conn, buf)
	p.Printf("server got %s\n", buf[:n])
	p.Send(conn, []byte("done:"+string(buf[:n])))
	p.Close(conn)
	p.Close(srv)
	p.Wait()
	return 0
}

func TestExperimentalSocketsReproducibleIPC(t *testing.T) {
	// Default: the §5.9 abort.
	res := runDT(t, hostA, core.Config{}, socketWorkload)
	if op, ok := res.Unsupported(); !ok || op != "socket" {
		t.Fatalf("default config should abort on sockets: %v", res.Err)
	}
	// Experimental mode: works, and identically on both hosts.
	a := runDT(t, hostA, core.Config{ExperimentalSockets: true}, socketWorkload)
	b := runDT(t, hostB, core.Config{ExperimentalSockets: true}, socketWorkload)
	if a.Err != nil || a.ExitCode != 0 {
		t.Fatalf("socket IPC failed: %v code=%d", a.Err, a.ExitCode)
	}
	if a.Stdout != b.Stdout {
		t.Errorf("socket IPC not reproducible:\n%q\nvs\n%q", a.Stdout, b.Stdout)
	}
	if !strings.Contains(a.Stdout, "done:job-42") {
		t.Errorf("IPC content wrong: %q", a.Stdout)
	}
}

func signalWorkload(p *guest.Proc) int {
	pid, _ := p.Fork(func(c *guest.Proc) int {
		n := 0
		c.Signal(abi.SIGUSR1, func(h *guest.Proc, s abi.Signal) {
			n++
			h.Printf("worker poked %d\n", n)
		})
		for n < 3 {
			c.Pause()
		}
		return n
	})
	for i := 0; i < 3; i++ {
		p.Compute(10_000)
		if err := p.Kill(pid, abi.SIGUSR1); err != abi.OK {
			return 1
		}
	}
	wr, _ := p.Waitpid(pid, 0)
	p.Printf("worker saw %d pokes\n", wr.Status.ExitCode())
	return 0
}

func TestExperimentalCrossProcessSignals(t *testing.T) {
	res := runDT(t, hostA, core.Config{}, signalWorkload)
	if op, ok := res.Unsupported(); !ok || op != "cross-process signal" {
		t.Fatalf("default config should abort: %v", res.Err)
	}
	a := runDT(t, hostA, core.Config{ExperimentalSignals: true}, signalWorkload)
	b := runDT(t, hostB, core.Config{ExperimentalSignals: true}, signalWorkload)
	if a.Err != nil || a.ExitCode != 0 {
		t.Fatalf("signal workload failed: %v code=%d stderr=%s", a.Err, a.ExitCode, a.Stderr)
	}
	if !strings.Contains(a.Stdout, "worker saw 3 pokes") {
		t.Errorf("deliveries lost: %q", a.Stdout)
	}
	if a.Stdout != b.Stdout {
		t.Errorf("signal delivery not reproducible:\n%q\nvs\n%q", a.Stdout, b.Stdout)
	}
}

func TestChecksummedDownloads(t *testing.T) {
	payload := []byte("release tarball contents")
	sum := sha256.Sum256(payload)
	good := core.Download{Data: payload, SHA256: hex.EncodeToString(sum[:])}
	bad := core.Download{Data: payload, SHA256: strings.Repeat("00", 32)}

	prog := func(p *guest.Proc) int {
		data, err := p.Fetch("https://example.org/release.tar")
		if err != abi.OK {
			return 1
		}
		p.Printf("got %d bytes: %s", len(data), data[:7])
		return 0
	}

	// Declared and verified: works, reproducibly.
	a := runDT(t, hostA, core.Config{Downloads: map[string]core.Download{"https://example.org/release.tar": good}}, prog)
	b := runDT(t, hostB, core.Config{Downloads: map[string]core.Download{"https://example.org/release.tar": good}}, prog)
	if a.Err != nil || a.Stdout != b.Stdout || !strings.Contains(a.Stdout, "release") {
		t.Errorf("verified download failed: err=%v out=%q", a.Err, a.Stdout)
	}
	// Checksum mismatch: reproducible container error.
	c := runDT(t, hostA, core.Config{Downloads: map[string]core.Download{"https://example.org/release.tar": bad}}, prog)
	if op, ok := c.Unsupported(); !ok || !strings.Contains(op, "checksum mismatch") {
		t.Errorf("bad checksum not rejected: %v", c.Err)
	}
	// Undeclared URL: reproducible container error.
	d := runDT(t, hostA, core.Config{}, prog)
	if op, ok := d.Unsupported(); !ok || !strings.Contains(op, "undeclared download") {
		t.Errorf("undeclared fetch not rejected: %v", d.Err)
	}
}

// A fetch is a traced call like any other, so its stop drains the buffer
// (DESIGN §4a): buffered calls before it flush there, one flush more than
// the same run without the fetch, and the fetched bytes are unchanged.
func TestFetchDrainsTheBuffer(t *testing.T) {
	const url = "https://example.org/release.tar"
	payload := []byte("release tarball contents")
	sum := sha256.Sum256(payload)
	cfg := core.Config{Downloads: map[string]core.Download{url: {Data: payload, SHA256: hex.EncodeToString(sum[:])}}}
	run := func(fetch bool) *core.Result {
		return runDT(t, hostA, cfg, func(p *guest.Proc) int {
			for i := 0; i < 5; i++ {
				p.Time()
			}
			if fetch {
				if data, err := p.Fetch(url); err != abi.OK || string(data) != string(payload) {
					return 1
				}
			}
			for i := 0; i < 5; i++ {
				p.Time()
			}
			return 0
		})
	}
	with, without := run(true), run(false)
	if with.Err != nil || with.ExitCode != 0 || without.Err != nil || without.ExitCode != 0 {
		t.Fatalf("runs failed: %v (exit %d) / %v (exit %d)", with.Err, with.ExitCode, without.Err, without.ExitCode)
	}
	if with.Tracer.Flushes != without.Tracer.Flushes+1 {
		t.Errorf("flushes %d with the fetch, %d without: the fetch did not drain the buffer",
			with.Tracer.Flushes, without.Tracer.Flushes)
	}
}

func TestFetchIsENOSYSNatively(t *testing.T) {
	got := runBaseline(t, hostA, func(p *guest.Proc) int {
		_, err := p.Fetch("https://example.org/x")
		p.Printf("%s", err)
		return 0
	})
	if !strings.Contains(got, "ENOSYS") {
		t.Errorf("native fetch = %q, want ENOSYS (no network in the stock kernel)", got)
	}
}
