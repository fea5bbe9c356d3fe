package core_test

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hashdeep"
)

// interpret turns an opcode script into a guest program: a randomized walk
// over the container ABI. Every opcode touches at least one taxonomy row, so
// quick.Check effectively fuzzes the determinization layer.
func interpret(script []uint16) guest.Program {
	return func(p *guest.Proc) int {
		fd := -1
		var children []int
		for i, op := range script {
			arg := int(op >> 4)
			switch op % 14 {
			case 0:
				p.Printf("t%d ", p.Time())
			case 1:
				buf := make([]byte, 1+arg%9)
				p.GetRandom(buf)
				p.Printf("r%x ", buf)
			case 2:
				p.Printf("p%d ", p.Getpid())
			case 3:
				p.MkdirAll(fmt.Sprintf("/tmp/d%d", arg%7), 0o755)
			case 4:
				p.WriteFile(fmt.Sprintf("/tmp/f%d", arg%9), []byte(fmt.Sprintf("v%d", i)), 0o644)
			case 5:
				ents, _ := p.ReadDir("/tmp")
				p.Printf("n%d ", len(ents))
				for _, e := range ents {
					p.Printf("%s,", e.Name)
				}
			case 6:
				st, err := p.Stat(fmt.Sprintf("/tmp/f%d", arg%9))
				if err == abi.OK {
					p.Printf("i%d,m%d ", st.Ino, st.Mtime.Sec)
				}
			case 7:
				p.Printf("c%d ", p.Rdtsc())
			case 8:
				p.Printf("q%x ", p.Cpuid(uint32(arg%8)).Leaf.EBX)
			case 9:
				p.Printf("a%x ", p.Mmap(4096))
			case 10:
				id := arg
				pid, err := p.Fork(func(c *guest.Proc) int {
					c.Compute(int64(1000 * (id%5 + 1)))
					c.AppendFile("/tmp/shared.log", []byte(fmt.Sprintf("<%d>", id%16)), 0o644)
					return id % 64
				})
				if err == abi.OK {
					children = append(children, pid)
				}
			case 11:
				if len(children) > 0 {
					wr, err := p.Wait()
					if err == abi.OK {
						p.Printf("w%d:%d ", wr.PID, wr.Status.ExitCode())
					}
					children = children[1:]
				}
			case 12:
				if fd < 0 {
					fd, _ = p.Open("/tmp/stream", abi.OCreat|abi.ORdwr, 0o644)
				}
				p.Write(fd, []byte{byte(op)})
			case 13:
				p.Nanosleep(int64(arg) * 1e6)
			}
		}
		for range children {
			p.Wait()
		}
		if fd >= 0 {
			p.Close(fd)
		}
		return 0
	}
}

// TestFuzzDeterminismAcrossHosts is the container guarantee as a property:
// for any program over the ABI, two hosts that differ in machine, entropy,
// clock and core count produce bitwise-identical results.
func TestFuzzDeterminismAcrossHosts(t *testing.T) {
	prop := func(script []uint16) bool {
		prog := interpret(script)
		a := runDT(t, hostA, core.Config{PRNGSeed: 99}, prog)
		b := runDT(t, hostB, core.Config{PRNGSeed: 99}, prog)
		if a.Err != nil || b.Err != nil {
			// Only reproducible container errors are acceptable, and they
			// must agree.
			return fmt.Sprint(a.Err) == fmt.Sprint(b.Err)
		}
		if a.Stdout != b.Stdout {
			t.Logf("stdout diverged for script %v:\nA: %s\nB: %s", script, a.Stdout, b.Stdout)
			return false
		}
		ha := hashdeep.HashSubtree(a.FS, "/tmp").Total()
		hb := hashdeep.HashSubtree(b.FS, "/tmp").Total()
		if ha != hb {
			t.Logf("fs diverged for script %v", script)
			return false
		}
		return true
	}
	n := 120
	if testing.Short() {
		n = 25
	}
	core.CheckQuick(t, prop, n)
}

// TestFuzzRunsAreIdempotent: the same host twice is the weaker determinism
// property (§3's "determinism"); it must also hold.
func TestFuzzRunsAreIdempotent(t *testing.T) {
	prop := func(script []uint16) bool {
		prog := interpret(script)
		a := runDT(t, hostA, core.Config{PRNGSeed: 3}, prog)
		b := runDT(t, hostA, core.Config{PRNGSeed: 3}, prog)
		return a.Stdout == b.Stdout
	}
	core.CheckQuick(t, prop, 40)
}
