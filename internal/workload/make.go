package workload

import (
	"strings"

	"repro/internal/abi"
	"repro/internal/guest"
)

// makefile is the parsed form of our Makefile: key=value lines.
type makefile struct {
	compiler string // "cc" or "javac"
	srcdir   string
	builddir string
	logfile  string // when set, per-unit completion lines are appended
	threads  string // javac: "futex" or "busywait"
	output   string // linked binary path
}

func parseMakefile(p *guest.Proc) (makefile, abi.Errno) {
	mf := makefile{compiler: "cc", srcdir: "src", builddir: "build", output: "build/prog"}
	data, err := p.ReadFile("Makefile")
	if err != abi.OK {
		return mf, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok {
			continue
		}
		switch k {
		case "compiler":
			mf.compiler = v
		case "srcdir":
			mf.srcdir = v
		case "builddir":
			mf.builddir = v
		case "logfile":
			mf.logfile = v
		case "threads":
			mf.threads = v
		case "output":
			mf.output = v
		}
	}
	return mf, abi.OK
}

// makeMoreToDo is the exit status chunked make returns when it built a full
// chunk and unbuilt units remain: not a failure, an invitation to invoke it
// again. The checkpoint trampoline seals the partial tree between chunks.
const makeMoreToDo = 10

// makeMain is the build driver: make [-jN] [-chunkC].
//
// It lists the source directory in getdents order, compiles every unit —
// with up to N concurrent compiler processes, exactly like a parallel make
// whose jobserver reaps children as they finish — and links. When a logfile
// is configured, completion lines are appended in *reap order*, so a -j>1
// baseline build records its scheduling races into the tree.
//
// With -chunkC (checkpoint mode only) make is incremental: units whose
// object already exists are skipped — the on-disk tree is the progress
// record — and at most C missing units are compiled before it exits with
// makeMoreToDo instead of linking.
func makeMain(p *guest.Proc) int {
	jobs, chunk := 1, 0
	for _, a := range p.Argv()[1:] {
		if strings.HasPrefix(a, "-chunk") {
			chunk = atoiDefault(strings.TrimPrefix(a, "-chunk"), 0)
		} else if strings.HasPrefix(a, "-j") {
			jobs = atoiDefault(strings.TrimPrefix(a, "-j"), 1)
		}
	}
	if jobs < 1 {
		jobs = 1
	}
	mf, err := parseMakefile(p)
	if err != abi.OK {
		p.Eprintf("make: *** no Makefile. Stop.\n")
		return 2
	}
	ents, derr := p.ReadDir(mf.srcdir)
	if derr != abi.OK {
		p.Eprintf("make: %s: %s\n", mf.srcdir, derr)
		return 2
	}
	var units []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name, ".c") {
			units = append(units, e.Name)
		}
	}
	p.MkdirAll(mf.builddir, 0o755)

	partial := false
	if chunk > 0 {
		var missing []string
		for _, u := range units {
			obj := mf.builddir + "/" + strings.TrimSuffix(u, ".c") + ".o"
			if p.Access(obj) != abi.OK {
				missing = append(missing, u)
			}
		}
		units = missing
		if len(units) > chunk {
			units, partial = units[:chunk], true
		}
	}
	if len(units) > 0 {
		if mf.compiler == "javac" {
			if code := javacCompile(p, mf, units, jobs); code != 0 {
				return code
			}
		} else if code := makeParallelCC(p, mf, units, jobs); code != 0 {
			return code
		}
	}
	if partial {
		return makeMoreToDo
	}

	// Link: object list in getdents order of the build directory.
	oents, _ := p.ReadDir(mf.builddir)
	argv := []string{"ld", "-o", mf.output}
	for _, e := range oents {
		if strings.HasSuffix(e.Name, ".o") {
			argv = append(argv, mf.builddir+"/"+e.Name)
		}
	}
	pid, serr := p.Spawn("/bin/ld", argv, nil)
	if serr != abi.OK {
		p.Eprintf("make: spawn ld: %s\n", serr)
		return 2
	}
	wr, _ := p.Waitpid(pid, 0)
	if !wr.Status.Exited() || wr.Status.ExitCode() != 0 {
		p.Eprintf("make: *** ld failed. Stop.\n")
		return 2
	}
	return 0
}

// makeParallelCC runs one cc process per unit, at most jobs at a time.
func makeParallelCC(p *guest.Proc, mf makefile, units []string, jobs int) int {
	type job struct{ unit string }
	pidUnit := make(map[int]string)
	next := 0
	launch := func() abi.Errno {
		u := units[next]
		next++
		obj := mf.builddir + "/" + strings.TrimSuffix(u, ".c") + ".o"
		pid, err := p.Spawn("/bin/cc", []string{"cc", "-O2", "-o", obj, mf.srcdir + "/" + u}, nil)
		if err != abi.OK {
			return err
		}
		pidUnit[pid] = u
		return abi.OK
	}
	for next < len(units) && len(pidUnit) < jobs {
		if err := launch(); err != abi.OK {
			p.Eprintf("make: spawn cc: %s\n", err)
			return 2
		}
	}
	for len(pidUnit) > 0 {
		wr, werr := p.Wait()
		if werr != abi.OK {
			p.Eprintf("make: wait: %s\n", werr)
			return 2
		}
		u, ok := pidUnit[wr.PID]
		if !ok {
			continue
		}
		delete(pidUnit, wr.PID)
		if !wr.Status.Exited() || wr.Status.ExitCode() != 0 {
			p.Eprintf("make: *** [%s] Error %d\n", u, wr.Status.ExitCode())
			return 2
		}
		p.Printf("  CC %s\n", u)
		if mf.logfile != "" {
			p.AppendFile(mf.logfile, []byte("CC "+u+"\n"), 0o644)
		}
		if next < len(units) {
			if err := launch(); err != abi.OK {
				return 2
			}
		}
	}
	_ = job{}
	return 0
}

// javacCompile models a multi-threaded compiler (the Java build class of
// §7.1.1): worker threads pull units from a shared queue. The "futex"
// flavour blocks properly and works — slowly — under DetTrace's serialized
// threads; the "busywait" flavour spins on the queue word and is exactly
// the pattern DetTrace cannot support.
func javacCompile(p *guest.Proc, mf makefile, units []string, jobs int) int {
	const (
		wordNext = 0x100 // next unit index to take
		wordDone = 0x101 // completed unit count
		wordErr  = 0x102
	)
	nthreads := jobs
	if nthreads > 4 {
		nthreads = 4
	}
	if nthreads < 2 {
		nthreads = 2
	}
	busy := mf.threads == "busywait"
	worker := func(w *guest.Proc) int {
		for {
			idx := w.Load(wordNext)
			if int(idx) >= len(units) {
				return 0
			}
			w.Store(wordNext, idx+1)
			u := units[idx]
			src, err := w.ReadFile(mf.srcdir + "/" + u)
			if err != abi.OK {
				w.Store(wordErr, 1)
				return 1
			}
			w.Work(int64(len(src)) * 350 * int64(atoiDefault(w.Getenv("CCFACTOR"), 1)))
			obj := make([]byte, 0, len("OBJ1\n")+len(src))
			obj = append(obj, "OBJ1\n"...)
			for rest := string(src); rest != ""; {
				var line string
				line, rest, _ = strings.Cut(rest, "\n")
				obj = appendObjLine(w, obj, line)
			}
			objPath := mf.builddir + "/" + strings.TrimSuffix(u, ".c") + ".o"
			if werr := w.WriteFile(objPath, obj, 0o644); werr != abi.OK {
				w.Store(wordErr, 1)
				return 1
			}
			w.Add(wordDone, 1)
			w.FutexWake(wordDone, 8)
		}
	}
	for i := 0; i < nthreads; i++ {
		p.CloneThread(worker)
	}
	// The coordinator waits for completion.
	for p.Load(wordDone) < int64(len(units)) && p.Load(wordErr) == 0 {
		if busy {
			p.Compute(200) // spin: unsupported under serialized threads
			continue
		}
		p.FutexWait(wordDone, p.Load(wordDone))
	}
	if p.Load(wordErr) != 0 {
		p.Eprintf("javac: compilation failed\n")
		return 2
	}
	return 0
}
