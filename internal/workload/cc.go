// Package workload implements the simulated build toolchain as guest
// programs: cc, ld, tar, gzip, dpkg-deb, configure, make, javac,
// dpkg-buildpackage and the generic compiled binary. Together they
// reproduce, mechanically, every irreproducibility pattern the paper and
// the Debian Reproducible Builds project catalogue: timestamps recorded by
// tar, build paths captured by compilers, randomness in symbol names,
// readdir order in archive layout, PIDs in temp files, rdtsc in profiling
// code, and environment capture.
//
// Irreproducibility is never declared — it is *earned*: programs sample the
// nondeterministic value through the real syscall/instruction surface and
// write it into their output file, so whether the final .deb differs across
// runs is decided by what DetTrace did or did not determinize.
package workload

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/abi"
	"repro/internal/guest"
)

// Source-file directive syntax: a line of the form
//
//	@embed-<what>[:<arg>]@
//
// makes the compiler embed the sampled value into its object file. All
// other lines "compile" into content hashes.
const directivePrefix = "@embed-"

// ccMain is the C compiler: cc [-junk...] -o <out> <in>...
//
// Like the real gcc of §7.4 it touches several nondeterminism sources even
// when compiling clean code: libc mkstemp derives temp file names from the
// vDSO clock, the driver reads /dev/urandom for unique symbol names when
// the source asks for them, and the optimizer's internal profiling reads
// rdtsc. None of those values reach the object file unless a directive
// pulls them in.
func ccMain(p *guest.Proc) int {
	out, ins := parseOutArgs(p.Argv())
	if out == "" || len(ins) == 0 {
		p.Eprintf("cc: usage: cc -o out in...\n")
		return 2
	}

	// mkstemp-style temp object: the name comes from the vDSO clock — the
	// interception hole DetTrace closes by replacing the vDSO (§5.3).
	tmp := fmt.Sprintf("/tmp/cc%x.s", uint64(p.VdsoNow())&0xffffff)
	if err := p.WriteFile(tmp, []byte("asm scratch"), 0o600); err != abi.OK {
		p.Eprintf("cc: tmp: %s\n", err)
		return 1
	}
	defer p.Unlink(tmp)

	// The build heaviness knob: debian/rules exports CFLAGS-like weighting
	// through the CCFACTOR environment variable.
	factor := int64(atoiDefault(p.Getenv("CCFACTOR"), 1))

	obj := []byte("OBJ1\n")
	var scratch []byte // every found header is read into it
	for _, in := range ins {
		src, err := p.ReadFile(in)
		if err != abi.OK {
			p.Eprintf("cc: %s: %s\n", in, err)
			return 1
		}
		// Optimizer self-profiling, as ld and libc do internally (§7.4):
		// the parse, optimize, schedule and emit phases each bracket
		// themselves with the cycle counter.
		share := []int64{150, 150, 50, 50}
		for _, sh := range share {
			phase := p.Rdtsc()
			p.Work(int64(len(src)) * sh * factor)
			_ = p.Rdtsc() - phase
		}

		obj = slices.Grow(obj, len(src))
		for rest := string(src); rest != ""; {
			var line string
			line, rest, _ = strings.Cut(rest, "\n")
			if strings.Contains(line, "@@SYNTAX ERROR@@") {
				p.Eprintf("cc: %s: syntax error near %q\n", in, line)
				return 1
			}
			if h, ok := includeTarget(line); ok {
				var found bool
				if scratch, found = resolveInclude(p, h, scratch); !found {
					// Missing headers warn but do not fail, like -MG.
					obj = append(append(append(obj, "warn:missing-include:"...), h...), '\n')
				}
				continue
			}
			obj = appendObjLine(p, obj, line)
		}
	}
	if err := p.WriteFile(out, obj, 0o644); err != abi.OK {
		p.Eprintf("cc: %s: %s\n", out, err)
		return 1
	}
	return 0
}

// appendObjLine appends what one source line compiles to: an embed
// directive's value, a pass-through marker, or the line's code hash as
// "code:%08x". An empty line compiles to nothing.
func appendObjLine(p *guest.Proc, obj []byte, line string) []byte {
	if v, ok := p1Directive(p, line); ok {
		return append(append(obj, v...), '\n')
	}
	if line == "" {
		return obj
	}
	const hex = "0123456789abcdef"
	h := lineHash(line)
	obj = append(obj, "code:"...)
	for shift := 28; shift >= 0; shift -= 4 {
		obj = append(obj, hex[h>>shift&0xf])
	}
	return append(obj, '\n')
}

// p1Directive evaluates one embed directive, returning the object line.
func p1Directive(p *guest.Proc, line string) (string, bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, directivePrefix) || !strings.HasSuffix(line, "@") {
		// Pass-through markers (`@tests:...@` etc.) are handled by the
		// linker and test binary.
		if strings.HasPrefix(line, "@tests:") && strings.HasSuffix(line, "@") {
			return "meta:" + strings.Trim(line, "@"), true
		}
		return "", false
	}
	spec := strings.TrimSuffix(strings.TrimPrefix(line, directivePrefix), "@")
	what, arg, _ := strings.Cut(spec, ":")
	switch what {
	case "timestamp":
		return fmt.Sprintf("ts:%d", p.Time()), true
	case "timestamp-vdso":
		return fmt.Sprintf("tsv:%d", p.VdsoNow()/1e9), true
	case "buildpath":
		cwd, _ := p.Getcwd()
		return "path:" + cwd, true
	case "random":
		buf := make([]byte, 8)
		fd, err := p.Open("/dev/urandom", abi.ORdonly, 0)
		if err == abi.OK {
			p.Read(fd, buf)
			p.Close(fd)
		}
		return fmt.Sprintf("rand:%x", buf), true
	case "getrandom":
		buf := make([]byte, 8)
		p.GetRandom(buf)
		return fmt.Sprintf("grand:%x", buf), true
	case "rdrand":
		v, ok := p.Rdrand()
		if !ok {
			return "rdrand:unsupported", true
		}
		return fmt.Sprintf("rdrand:%x", v), true
	case "pid":
		return fmt.Sprintf("pid:%d", p.Getpid()), true
	case "hostname":
		return "host:" + p.Uname().Nodename, true
	case "kernel":
		return "kernel:" + p.Uname().Release, true
	case "env":
		return "env:" + arg + "=" + p.Getenv(arg), true
	case "readdir":
		ents, _ := p.ReadDir(arg)
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name
		}
		return "readdir:" + strings.Join(names, ","), true
	case "inode":
		st, _ := p.Stat(arg)
		return fmt.Sprintf("ino:%d", st.Ino), true
	case "mtime":
		st, _ := p.Stat(arg)
		return fmt.Sprintf("mtime:%d", st.Mtime.Sec), true
	case "dirsize":
		st, _ := p.Stat(arg)
		return fmt.Sprintf("dirsize:%d", st.Size), true
	case "rdtsc":
		return fmt.Sprintf("tsc:%d", p.Rdtsc()), true
	case "mmap":
		return fmt.Sprintf("addr:%#x", p.Mmap(4096)), true
	case "cores":
		return fmt.Sprintf("cores:%d", p.Sysinfo().NumCPU), true
	case "cpuinfo":
		info, err := p.ReadFile("/proc/cpuinfo")
		if err != abi.OK {
			return "cpuinfo:unreadable", true
		}
		return fmt.Sprintf("cpuinfo:%d:%08x", strings.Count(string(info), "processor"), lineHash(string(info))), true
	case "uptime":
		up, _ := p.ReadFile("/proc/uptime")
		return "uptime:" + strings.TrimSpace(string(up)), true
	case "tsx":
		if p.Xbegin() {
			return "tsx:commit", true
		}
		return "tsx:abort", true
	case "uid":
		return fmt.Sprintf("uid:%d", p.Getuid()), true
	default:
		return "unknown-directive:" + what, true
	}
}

// includeTarget parses a `#include <name>` line.
func includeTarget(line string) (string, bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "#include <") || !strings.HasSuffix(line, ">") {
		return "", false
	}
	return line[len("#include <") : len(line)-1], true
}

// includeDirs is the preprocessor search path, in probe order.
var includeDirs = [...]string{"/usr/local/include/", "/usr/include/", "include/"}

// includePathCap bounds the include-path memo; a header name past it has
// its search paths concatenated on every probe.
const includePathCap = 4096

// includePaths memoizes each header name's search paths for every compiler
// in the process: farm workers compile concurrently, so it is locked. Keys
// are clones, so an entry never pins the source text its name was cut from.
var includePaths = struct {
	sync.RWMutex
	m map[string][len(includeDirs)]string
}{m: make(map[string][len(includeDirs)]string)}

// searchPaths returns header h joined to each include directory.
func searchPaths(h string) [len(includeDirs)]string {
	includePaths.RLock()
	paths, ok := includePaths.m[h]
	includePaths.RUnlock()
	if ok {
		return paths
	}
	for i, dir := range includeDirs {
		paths[i] = dir + h
	}
	includePaths.Lock()
	if len(includePaths.m) < includePathCap {
		includePaths.m[strings.Clone(h)] = paths
	}
	includePaths.Unlock()
	return paths
}

// resolveInclude walks the preprocessor search path, the ENOENT-heavy open
// pattern that dominates a real compiler's system call profile. A found
// header is fstat'd and read whole, like a preprocessor mapping the file —
// which is why partial reads "never happen" on regular files (§5.5). It is
// read into scratch, grown to fit, which resolveInclude returns for the
// next header.
func resolveInclude(p *guest.Proc, h string, scratch []byte) ([]byte, bool) {
	for _, path := range searchPaths(h) {
		fd, err := p.Open(path, abi.ORdonly, 0)
		if err != abi.OK {
			continue
		}
		st, serr := p.Fstat(fd)
		if serr == abi.OK && st.Size > 0 {
			scratch = slices.Grow(scratch[:0], int(st.Size))
			p.Read(fd, scratch[:st.Size])
		}
		p.Close(fd)
		return scratch, true
	}
	return scratch, false
}

// parseOutArgs extracts -o <out> and the input list.
func parseOutArgs(argv []string) (out string, ins []string) {
	for i := 1; i < len(argv); i++ {
		switch {
		case argv[i] == "-o" && i+1 < len(argv):
			out = argv[i+1]
			i++
		case strings.HasPrefix(argv[i], "-"):
			// flag, ignored
		default:
			ins = append(ins, argv[i])
		}
	}
	return out, ins
}

// lineHash is the stand-in for code generation: stable across runs.
func lineHash(line string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(line); i++ {
		h ^= uint32(line[i])
		h *= 16777619
	}
	return h
}

// atoiDefault parses n with a fallback.
func atoiDefault(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return def
}
