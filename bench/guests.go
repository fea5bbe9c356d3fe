package main

import (
	"strconv"

	"repro/internal/abi"
	"repro/internal/guest"
)

// The syscall-mix guests. They are the benchmark's own programs, registered
// on the harness's own guest.Registry; the system under test sees them only
// as executables in an image plus an argv the harness generated from the
// seed. Each prints a digest of everything it observed — times, pids, inode
// numbers, mtimes, directory order, bytes read — so a determinism leak in any
// handler changes stdout.

func registerGuests(reg *guest.Registry) {
	reg.Register("buffered", guestBuffered)
	reg.Register("traced-io", guestTracedIO)
	reg.Register("spawn", guestSpawn)
	reg.Register("spawn-child", guestSpawnChild)
	reg.Register("threads", guestThreads)
}

func argInt(p *guest.Proc, i int) int {
	if i >= len(p.Argv()) {
		return 0
	}
	n, _ := strconv.Atoi(p.Argv()[i])
	return n
}

// mix folds words into a running FNV-1a digest inside the guest (guests may
// not touch host state, so they carry their own mixer).
func mix(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

const mixBasis = 14695981039346656037

// guestBuffered loops over the calls the seccomp Buffer table services in
// the tracee with no stop: time, getpid, fstat, lseek, getcwd.
// argv: buffered <iterations>
func guestBuffered(p *guest.Proc) int {
	n := argInt(p, 1)
	fd, err := p.Open("/data/blob", abi.ORdonly, 0)
	if err != abi.OK {
		return 1
	}
	h := uint64(mixBasis)
	for i := 0; i < n; i++ {
		h = mix(h, uint64(p.Time()), uint64(p.Getpid()))
		st, _ := p.Fstat(fd)
		h = mix(h, st.Ino, uint64(st.Size), uint64(st.Mtime.Sec))
		off, _ := p.Lseek(fd, int64(i%64), abi.SeekSet)
		cwd, _ := p.Getcwd()
		h = mix(h, uint64(off), uint64(len(cwd)))
	}
	p.Close(fd)
	p.Printf("buffered %d %016x\n", n, h)
	return 0
}

// guestTracedIO drives the calls that stop at the tracer and mutate the COW
// overlay: open/write/read/stat/rename/unlink/getdents.
// argv: traced-io <files> <bytes per file>
func guestTracedIO(p *guest.Proc) int {
	files, size := argInt(p, 1), argInt(p, 2)
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i*7 + files)
	}
	if err := p.MkdirAll("/work/io", 0o755); err != abi.OK {
		return 1
	}
	h := uint64(mixBasis)
	for i := 0; i < files; i++ {
		name := "/work/io/f" + strconv.Itoa(i)
		fd, err := p.Open(name+".tmp", abi.OWronly|abi.OCreat|abi.OTrunc, 0o644)
		if err != abi.OK {
			return 1
		}
		p.Write(fd, buf)
		p.Close(fd)
		if err := p.Rename(name+".tmp", name); err != abi.OK {
			return 1
		}
		st, _ := p.Stat(name)
		h = mix(h, st.Ino, uint64(st.Size), uint64(st.Mtime.Sec), uint64(st.Nlink))
		data, _ := p.ReadFile(name)
		for _, b := range data {
			h = mix(h, uint64(b))
		}
		if i%3 == 2 {
			p.Unlink(name)
		}
	}
	ents, _ := p.ReadDir("/work/io")
	for _, e := range ents {
		h = mix(h, e.Ino, uint64(len(e.Name)))
		for _, b := range []byte(e.Name) {
			h = mix(h, uint64(b))
		}
	}
	p.Printf("traced-io %d %d %d %016x\n", files, size, len(ents), h)
	return 0
}

// guestSpawn forks and execs children that talk back through a pipe.
// argv: spawn <children> <bytes per child>
func guestSpawn(p *guest.Proc) int {
	children, size := argInt(p, 1), argInt(p, 2)
	h := uint64(mixBasis)
	buf := make([]byte, 4096)
	for i := 0; i < children; i++ {
		r, w, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		pid, err := p.Fork(func(c *guest.Proc) int {
			c.Close(r)
			c.Dup2(w, 1)
			c.Close(w)
			c.Exec("/bin/spawn-child", []string{"spawn-child", strconv.Itoa(i), strconv.Itoa(size)}, nil)
			return 127
		})
		if err != abi.OK {
			return 1
		}
		p.Close(w)
		for {
			n, rerr := p.Read(r, buf)
			if rerr != abi.OK || n == 0 {
				break
			}
			for _, b := range buf[:n] {
				h = mix(h, uint64(b))
			}
		}
		p.Close(r)
		wr, _ := p.Waitpid(pid, 0)
		h = mix(h, uint64(pid), uint64(wr.PID), uint64(wr.Status))
	}
	p.Printf("spawn %d %d %016x\n", children, size, h)
	return 0
}

// guestSpawnChild writes its pid and a payload to stdout (the pipe).
// argv: spawn-child <index> <bytes>
func guestSpawnChild(p *guest.Proc) int {
	idx, size := argInt(p, 1), argInt(p, 2)
	out := make([]byte, size)
	for i := range out {
		out[i] = byte('a' + (i+idx)%26)
	}
	p.Printf("%d:%d:", p.Getpid(), p.Getppid())
	p.Write(1, out)
	return idx % 7
}

// guestThreads clones worker threads that ping-pong with the coordinator on
// a futex word and write files concurrently, so thread workspaces fork and
// merge and the scheduler has real decisions to make.
// argv: threads <workers> <rounds> <bytes per file>
func guestThreads(p *guest.Proc) int {
	workers, rounds, size := argInt(p, 1), argInt(p, 2), argInt(p, 3)
	const (
		wordTurn = 0x200 // round the workers may run
		wordDone = 0x201 // worker completions, cumulative
	)
	if err := p.MkdirAll("/work/th", 0o755); err != abi.OK {
		return 1
	}
	worker := func(id int) guest.Program {
		return func(w *guest.Proc) int {
			buf := make([]byte, size)
			for r := 1; r <= rounds; r++ {
				for w.Load(wordTurn) < int64(r) {
					w.FutexWait(wordTurn, w.Load(wordTurn))
				}
				for i := range buf {
					buf[i] = byte(id*31 + r + i)
				}
				w.Compute(int64(2000 + 100*id))
				w.WriteFile("/work/th/w"+strconv.Itoa(id)+"-"+strconv.Itoa(r%4), buf, 0o644)
				w.Add(wordDone, 1)
				w.FutexWake(wordDone, 1)
			}
			return 0
		}
	}
	for id := 0; id < workers; id++ {
		if _, err := p.CloneThread(worker(id)); err != abi.OK {
			return 1
		}
	}
	for r := 1; r <= rounds; r++ {
		p.Store(wordTurn, int64(r))
		p.FutexWake(wordTurn, int64(workers))
		for p.Load(wordDone) < int64(r*workers) {
			p.FutexWait(wordDone, p.Load(wordDone))
		}
	}
	h := uint64(mixBasis)
	ents, _ := p.ReadDir("/work/th")
	for _, e := range ents {
		st, _ := p.Stat("/work/th/" + e.Name)
		h = mix(h, e.Ino, st.Ino, uint64(st.Size), uint64(st.Mtime.Sec))
		data, _ := p.ReadFile("/work/th/" + e.Name)
		for _, b := range data {
			h = mix(h, uint64(b))
		}
	}
	p.Printf("threads %d %d %d %d %016x\n", workers, rounds, size, len(ents), h)
	return 0
}
