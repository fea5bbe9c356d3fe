// Package guest defines the programming interface for code that runs
// *inside* the simulated container: the Proc handle with typed system call
// wrappers, the program registry that execve resolves binaries against, and
// the executable file format.
//
// A guest program is a Go function of type Program. It may only observe and
// affect the world through its Proc — every wrapper below bottoms out in a
// kernel syscall, a CPU instruction, or a compute burst, all of which flow
// through the tracer policy. That discipline is what makes DetTrace's
// guarantee testable: if the API surface is the Linux ABI, determinizing the
// ABI determinizes the program.
package guest

import (
	"fmt"
	"strings"

	"repro/internal/abi"
	"repro/internal/kernel"
)

// Program is a guest executable body. The return value is the process exit
// code.
type Program func(p *Proc) int

// Proc is a guest program's handle on its process.
type Proc struct {
	T     *kernel.Thread
	Image *kernel.ExecImage

	// obj is the handle's out-parameter record, made on first use: the
	// wrappers that pass the kernel an object (a stat buffer, a timespec,
	// a cwd string) point Syscall.Obj into it instead of at a local that
	// would escape, so a steady-state call allocates nothing. A handle
	// makes one call at a time, and a signal handler runs with a Proc of
	// its own, so a handler's calls never touch the record of the call it
	// interrupted.
	obj *objRecord
}

// objRecord holds one field per object kind a wrapper passes; callObj
// fills and empties them.
type objRecord struct {
	stat    abi.Stat
	ts      abi.Timespec
	times   [2]abi.Timespec
	fds     [2]int
	str     string
	dents   []abi.Dirent
	bytes   []byte
	itimer  abi.Itimerval
	uts     abi.Utsname
	sysinfo abi.Sysinfo
	wait    kernel.WaitResult
}

// objs returns the handle's out-parameter record.
func (p *Proc) objs() *objRecord {
	if p.obj == nil {
		p.obj = new(objRecord)
	}
	return p.obj
}

// callObj issues sc with *obj as its object, set to in first (an
// out-parameter passes the zero value, so a call that fails before writing
// returns it), and returns what the call left there. It zeroes *obj again,
// so the record pins nothing.
func callObj[T any](p *Proc, obj *T, in T, sc abi.Syscall) (T, abi.Errno) {
	*obj = in
	sc.Obj = obj
	_, e := ret(p.call(&sc))
	out := *obj
	var zero T
	*obj = zero
	return out, e
}

type exitPanic struct{ code int }

// Exit terminates the calling program immediately with the given code.
func (p *Proc) Exit(code int) {
	panic(exitPanic{code})
}

// run invokes prog, converting Exit panics into return codes.
func run(prog Program, p *Proc) (code int) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(exitPanic); ok {
				code = e.code
				return
			}
			panic(r)
		}
	}()
	return prog(p)
}

// --- executable format -------------------------------------------------------

const exeMagic = "#!repro-exe "

// MakeExe builds an executable file image that execve can resolve: an
// interpreter line naming a registered program, followed by an arbitrary
// payload (the "machine code" our toolchain workloads emit).
func MakeExe(program string, payload []byte) []byte {
	return append([]byte(exeMagic+program+"\n"), payload...)
}

// ParseExe splits an executable image into program name and payload.
func ParseExe(exe []byte) (program string, payload []byte, ok bool) {
	if !strings.HasPrefix(string(exe), exeMagic) {
		return "", nil, false
	}
	rest := string(exe[len(exeMagic):])
	i := strings.IndexByte(rest, '\n')
	if i < 0 {
		return "", nil, false
	}
	return rest[:i], exe[len(exeMagic)+i+1:], true
}

// Registry maps program names to Program implementations.
type Registry struct {
	progs map[string]Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{progs: make(map[string]Program)} }

// Register adds or replaces a program.
func (r *Registry) Register(name string, prog Program) {
	r.progs[name] = prog
}

// Lookup fetches a program by name.
func (r *Registry) Lookup(name string) (Program, bool) {
	prog, ok := r.progs[name]
	return prog, ok
}

// Resolver adapts the registry to the kernel's execve hook.
func (r *Registry) Resolver() kernel.Resolver {
	return func(img *kernel.ExecImage) (kernel.ProgramFn, abi.Errno) {
		name, payload, ok := ParseExe(img.Exe)
		if !ok {
			return nil, abi.EINVAL // ENOEXEC territory
		}
		prog, found := r.progs[name]
		if !found {
			return nil, abi.ENOENT
		}
		img.Payload = payload
		return r.Bind(prog, img), abi.OK
	}
}

// Bind wraps a Program into a kernel ProgramFn with the given image.
func (r *Registry) Bind(prog Program, img *kernel.ExecImage) kernel.ProgramFn {
	return func(t *kernel.Thread) int {
		return run(prog, &Proc{T: t, Image: img})
	}
}

// Start launches a native run: it execs path as k's first process, in cwd
// when the image has that directory ("" keeps the root), so the exec hooks
// fire for the command exactly as for any later process.
func Start(k *kernel.Kernel, path string, argv, env []string, cwd string) *kernel.Proc {
	init := func(t *kernel.Thread) int {
		(&Proc{T: t}).Exec(path, argv, env)
		return 127 // exec failed
	}
	proc := k.Start(init, argv, env)
	if n, err := k.ResolveInode(proc, cwd, true); err == abi.OK && n.IsDir() {
		proc.Cwd, proc.CwdPath = n, cwd
	}
	return proc
}

// --- process identity ---------------------------------------------------------

// Argv returns the program's argument vector.
func (p *Proc) Argv() []string { return p.T.Proc.Argv }

// Environ returns the process environment as KEY=VALUE strings.
func (p *Proc) Environ() []string { return p.T.Proc.Env }

// Getenv looks a variable up in the environment.
func (p *Proc) Getenv(key string) string {
	prefix := key + "="
	for _, kv := range p.T.Proc.Env {
		if strings.HasPrefix(kv, prefix) {
			return kv[len(prefix):]
		}
	}
	return ""
}

// SetWeight declares that each subsequent action of this process stands for
// w real actions at paper scale (see DESIGN.md's scale note).
func (p *Proc) SetWeight(w int64) {
	if w < 1 {
		w = 1
	}
	p.T.Proc.Weight = w
}

// --- raw syscall plumbing ------------------------------------------------------

// call funnels every wrapper's syscall through the thread's reusable record.
// Copying the literal into T.Event keeps it from escaping, so the dispatch
// hot path allocates nothing; the full-struct copy also clears any cached
// interception verdict from the previous call. One call is in flight per
// thread at a time (signal handlers save and restore around nesting), so the
// single record is enough.
func (p *Proc) call(sc *abi.Syscall) *abi.Syscall {
	e := &p.T.Event
	*e = *sc
	return p.T.Syscall(e)
}

func ret(sc *abi.Syscall) (int64, abi.Errno) {
	if e := sc.Err(); e != abi.OK {
		return 0, e
	}
	return sc.Ret, abi.OK
}

// --- files ---------------------------------------------------------------------

// Open opens a file, returning the descriptor.
func (p *Proc) Open(path string, flags int, mode uint32) (int, abi.Errno) {
	sc := p.call(&abi.Syscall{Num: abi.SysOpen, Path: path, Arg: [6]int64{int64(flags), int64(mode)}})
	n, e := ret(sc)
	return int(n), e
}

// Close closes a descriptor.
func (p *Proc) Close(fd int) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysClose, Arg: [6]int64{int64(fd)}}))
	return e
}

// Read reads up to len(buf) bytes from fd.
func (p *Proc) Read(fd int, buf []byte) (int, abi.Errno) {
	sc := p.call(&abi.Syscall{Num: abi.SysRead, Arg: [6]int64{int64(fd)}, Buf: buf})
	n, e := ret(sc)
	return int(n), e
}

// Write writes buf to fd.
func (p *Proc) Write(fd int, buf []byte) (int, abi.Errno) {
	sc := p.call(&abi.Syscall{Num: abi.SysWrite, Arg: [6]int64{int64(fd)}, Buf: buf})
	n, e := ret(sc)
	return int(n), e
}

// WriteString writes s to fd.
func (p *Proc) WriteString(fd int, s string) (int, abi.Errno) {
	return p.Write(fd, []byte(s))
}

// Printf formats to the container stdout.
func (p *Proc) Printf(format string, args ...any) {
	p.WriteString(1, fmt.Sprintf(format, args...))
}

// Eprintf formats to the container stderr.
func (p *Proc) Eprintf(format string, args ...any) {
	p.WriteString(2, fmt.Sprintf(format, args...))
}

// Lseek repositions fd.
func (p *Proc) Lseek(fd int, off int64, whence int) (int64, abi.Errno) {
	return ret(p.call(&abi.Syscall{Num: abi.SysLseek, Arg: [6]int64{int64(fd), off, int64(whence)}}))
}

// Stat stats a path, following symlinks.
func (p *Proc) Stat(path string) (abi.Stat, abi.Errno) {
	return callObj(p, &p.objs().stat, abi.Stat{}, abi.Syscall{Num: abi.SysStat, Path: path})
}

// Lstat stats a path without following the final symlink.
func (p *Proc) Lstat(path string) (abi.Stat, abi.Errno) {
	return callObj(p, &p.objs().stat, abi.Stat{}, abi.Syscall{Num: abi.SysLstat, Path: path})
}

// Fstat stats an open descriptor.
func (p *Proc) Fstat(fd int) (abi.Stat, abi.Errno) {
	return callObj(p, &p.objs().stat, abi.Stat{}, abi.Syscall{Num: abi.SysFstat, Arg: [6]int64{int64(fd)}})
}

// Getdents reads up to max directory entries from fd (0 means all).
func (p *Proc) Getdents(fd int, max int) ([]abi.Dirent, abi.Errno) {
	out, e := callObj(p, &p.objs().dents, nil, abi.Syscall{Num: abi.SysGetdents, Arg: [6]int64{int64(fd), int64(max)}})
	if e != abi.OK {
		return nil, e
	}
	return out, abi.OK
}

// ReadDir opens path and returns its entries in getdents order — host order
// natively, sorted under DetTrace.
func (p *Proc) ReadDir(path string) ([]abi.Dirent, abi.Errno) {
	fd, err := p.Open(path, abi.ORdonly|abi.ODirectory, 0)
	if err != abi.OK {
		return nil, err
	}
	defer p.Close(fd)
	return p.Getdents(fd, 0)
}

// ReadFile slurps a whole file through open/read/close. Regular files are
// read with one exact-size read (stat-then-read, the pattern that makes
// partial reads "never happen" on regular files, §5.5); pseudo files and
// devices report size 0 and are drained in chunks.
func (p *Proc) ReadFile(path string) ([]byte, abi.Errno) {
	fd, err := p.Open(path, abi.ORdonly, 0)
	if err != abi.OK {
		return nil, err
	}
	defer p.Close(fd)
	st, err := p.Fstat(fd)
	if err != abi.OK {
		return nil, err
	}
	if st.IsRegular() && st.Size > 0 {
		buf := make([]byte, st.Size)
		total := 0
		for total < len(buf) {
			n, err := p.Read(fd, buf[total:])
			if err != abi.OK {
				return nil, err
			}
			if n == 0 {
				break
			}
			total += n
		}
		return buf[:total], abi.OK
	}
	var out []byte
	chunk := make([]byte, 4096)
	for {
		n, err := p.Read(fd, chunk)
		if err != abi.OK {
			return nil, err
		}
		if n == 0 {
			return out, abi.OK
		}
		out = append(out, chunk[:n]...)
	}
}

// WriteFile creates (or truncates) path with the given contents.
func (p *Proc) WriteFile(path string, data []byte, mode uint32) abi.Errno {
	fd, err := p.Open(path, abi.OCreat|abi.OWronly|abi.OTrunc, mode)
	if err != abi.OK {
		return err
	}
	defer p.Close(fd)
	off := 0
	for off < len(data) {
		n, err := p.Write(fd, data[off:])
		if err != abi.OK {
			return err
		}
		off += n
	}
	return abi.OK
}

// AppendFile appends data to path, creating it if needed.
func (p *Proc) AppendFile(path string, data []byte, mode uint32) abi.Errno {
	fd, err := p.Open(path, abi.OCreat|abi.OWronly|abi.OAppend, mode)
	if err != abi.OK {
		return err
	}
	defer p.Close(fd)
	_, werr := p.Write(fd, data)
	return werr
}

// Mkdir creates one directory.
func (p *Proc) Mkdir(path string, mode uint32) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysMkdir, Path: path, Arg: [6]int64{int64(mode)}}))
	return e
}

// MkdirAll creates path and any missing parents. Relative paths stay
// relative to the working directory.
func (p *Proc) MkdirAll(path string, mode uint32) abi.Errno {
	abs := strings.HasPrefix(path, "/")
	cur := ""
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			continue
		}
		switch {
		case cur == "" && abs:
			cur = "/" + part
		case cur == "":
			cur = part
		default:
			cur = cur + "/" + part
		}
		if err := p.Mkdir(cur, mode); err != abi.OK && err != abi.EEXIST {
			return err
		}
	}
	return abi.OK
}

// Rmdir removes an empty directory.
func (p *Proc) Rmdir(path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysRmdir, Path: path}))
	return e
}

// Unlink removes a file.
func (p *Proc) Unlink(path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysUnlink, Path: path}))
	return e
}

// Rename moves oldpath to newpath.
func (p *Proc) Rename(oldpath, newpath string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysRename, Path: oldpath, Path2: newpath}))
	return e
}

// Link makes a hard link newpath -> oldpath.
func (p *Proc) Link(oldpath, newpath string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysLink, Path: oldpath, Path2: newpath}))
	return e
}

// Symlink creates a symlink at linkpath pointing to target.
func (p *Proc) Symlink(target, linkpath string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysSymlink, Path: target, Path2: linkpath}))
	return e
}

// Readlink reads a symlink's target.
func (p *Proc) Readlink(path string) (string, abi.Errno) {
	out, e := callObj(p, &p.objs().str, "", abi.Syscall{Num: abi.SysReadlink, Path: path})
	if e != abi.OK {
		return "", e
	}
	return out, abi.OK
}

// Chmod changes permission bits.
func (p *Proc) Chmod(path string, mode uint32) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysChmod, Path: path, Arg: [6]int64{int64(mode)}}))
	return e
}

// Chown changes ownership.
func (p *Proc) Chown(path string, uid, gid uint32) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysChown, Path: path, Arg: [6]int64{int64(uid), int64(gid)}}))
	return e
}

// Truncate resizes a file by path.
func (p *Proc) Truncate(path string, size int64) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysTruncate, Path: path, Arg: [6]int64{size}}))
	return e
}

// Access checks path existence/permissions.
func (p *Proc) Access(path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysAccess, Path: path}))
	return e
}

// Utimes sets atime/mtime explicitly.
func (p *Proc) Utimes(path string, atime, mtime abi.Timespec) abi.Errno {
	_, e := callObj(p, &p.objs().times, [2]abi.Timespec{atime, mtime}, abi.Syscall{Num: abi.SysUtimes, Path: path})
	return e
}

// UtimesNow asks the kernel to stamp path with "the current time" (the nil
// times form that DetTrace must rewrite, §5.10).
func (p *Proc) UtimesNow(path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysUtimes, Path: path}))
	return e
}

// Getcwd returns the current working directory.
func (p *Proc) Getcwd() (string, abi.Errno) {
	out, e := callObj(p, &p.objs().str, "", abi.Syscall{Num: abi.SysGetcwd})
	if e != abi.OK {
		return "", e
	}
	return out, abi.OK
}

// Chdir changes the working directory.
func (p *Proc) Chdir(path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysChdir, Path: path}))
	return e
}

// Chroot changes the process root.
func (p *Proc) Chroot(path string) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysChroot, Path: path}))
	return e
}

// Pipe creates a pipe, returning the read and write descriptors.
func (p *Proc) Pipe() (r, w int, err abi.Errno) {
	fds, e := callObj(p, &p.objs().fds, [2]int{}, abi.Syscall{Num: abi.SysPipe})
	if e != abi.OK {
		return 0, 0, e
	}
	return fds[0], fds[1], abi.OK
}

// Dup2 duplicates oldfd onto newfd.
func (p *Proc) Dup2(oldfd, newfd int) abi.Errno {
	_, e := ret(p.call(&abi.Syscall{Num: abi.SysDup2, Arg: [6]int64{int64(oldfd), int64(newfd)}}))
	return e
}

// Fcntl issues a file-control operation.
func (p *Proc) Fcntl(fd int, cmd, val int64) (int64, abi.Errno) {
	return ret(p.call(&abi.Syscall{Num: abi.SysFcntl, Arg: [6]int64{int64(fd), cmd, val}}))
}

// SetPipeSize grows a pipe's buffer (fcntl F_SETPIPE_SZ).
func (p *Proc) SetPipeSize(fd int, n int64) abi.Errno {
	_, e := p.Fcntl(fd, 1031, n)
	return e
}
