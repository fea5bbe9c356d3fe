package kernel

import (
	"strings"

	"repro/internal/abi"
	"repro/internal/fs"
)

// ExecArgs is the decoded argv/env pointer block of execve.
type ExecArgs struct {
	Argv []string
	Env  []string
}

// WaitResult is the out-parameter block of wait4.
type WaitResult struct {
	PID    int
	Status abi.WaitStatus
	Usage  abi.Rusage
}

// lookupCtx builds the path-resolution context for a process.
func lookupCtx(p *Proc) fs.LookupCtx { return fs.LookupCtx{Root: p.Root, Cwd: p.Cwd} }

// execSyscall implements the system call sc for thread t. It returns true
// when the call would block; the caller decides between kernel blocking and
// policy (DetTrace Blocked-queue) semantics. Results are stored in sc.
func (k *Kernel) execSyscall(t *Thread, sc *abi.Syscall) (blocked bool) {
	p := t.Proc
	switch sc.Num {
	case abi.SysRead:
		return k.sysRead(t, sc)
	case abi.SysWrite:
		return k.sysWrite(t, sc)
	case abi.SysOpen, abi.SysOpenat, abi.SysCreat:
		k.sysOpen(t, sc)
	case abi.SysClose:
		sc.SetErrno(p.FDs.close(k, int(sc.Arg[0])))
	case abi.SysLseek:
		k.sysLseek(t, sc)
	case abi.SysStat, abi.SysLstat:
		k.sysStat(t, sc, sc.Num == abi.SysStat)
	case abi.SysFstat:
		k.sysFstat(t, sc)
	case abi.SysGetdents:
		k.sysGetdents(t, sc)
	case abi.SysGetcwd:
		if out, ok := sc.Obj.(*string); ok {
			*out = p.CwdPath
		}
		sc.Ret = int64(len(p.CwdPath))
	case abi.SysChdir:
		k.sysChdir(t, sc)
	case abi.SysMkdir:
		k.sysMkdir(t, sc)
	case abi.SysRmdir:
		k.sysPathOp(t, sc, func(dir *fs.Inode, name string) abi.Errno {
			return k.FS.Rmdir(dir, name)
		})
	case abi.SysUnlink, abi.SysUnlinkat:
		k.sysPathOp(t, sc, func(dir *fs.Inode, name string) abi.Errno {
			return k.FS.Unlink(dir, name)
		})
	case abi.SysRename:
		k.sysRename(t, sc)
	case abi.SysLink:
		k.sysLink(t, sc)
	case abi.SysSymlink:
		k.sysSymlink(t, sc)
	case abi.SysReadlink:
		k.sysReadlink(t, sc)
	case abi.SysChmod:
		k.sysChmod(t, sc)
	case abi.SysChown:
		k.sysChown(t, sc)
	case abi.SysTruncate:
		k.sysTruncate(t, sc)
	case abi.SysFtruncate:
		k.sysFtruncate(t, sc)
	case abi.SysAccess:
		n, err := k.FS.Resolve(lookupCtx(p), sc.Path, true)
		if err != abi.OK {
			sc.SetErrno(err)
		} else {
			_ = n
			sc.Ret = 0
		}
	case abi.SysUtimes, abi.SysUtimensat:
		k.sysUtimes(t, sc)
	case abi.SysTime:
		k.Stats.TimeCalls += t.Proc.Weight
		sc.Ret = k.epoch + t.Clock/1e9
	case abi.SysGettimeofday, abi.SysClockGettime:
		k.Stats.TimeCalls += t.Proc.Weight
		ns := k.epoch*1e9 + t.Clock
		if out, ok := sc.Obj.(*abi.Timespec); ok {
			*out = abi.TimespecFromNanos(ns)
		}
		sc.Ret = 0
	case abi.SysNanosleep:
		return k.sysNanosleep(t, sc)
	case abi.SysAlarm:
		k.sysAlarm(t, sc)
	case abi.SysSetitimer:
		k.sysSetitimer(t, sc)
	case abi.SysPause:
		if len(p.sigPending) == 0 {
			return true
		}
		sc.SetErrno(abi.EINTR)
	case abi.SysGetrandom:
		k.HW.Entropy.Fill(sc.Buf)
		sc.Ret = int64(len(sc.Buf))
	case abi.SysPipe, abi.SysPipe2:
		k.sysPipe(t, sc)
	case abi.SysDup2:
		if err := p.FDs.dup2(k, int(sc.Arg[0]), int(sc.Arg[1])); err != abi.OK {
			sc.SetErrno(err)
		} else {
			sc.Ret = sc.Arg[1]
		}
	case abi.SysFork, abi.SysClone:
		k.sysFork(t, sc)
	case abi.SysExecve:
		k.sysExecve(t, sc)
	case abi.SysWait4:
		return k.sysWait4(t, sc)
	case abi.SysKill:
		k.sysKill(t, sc)
	case abi.SysRtSigaction:
		sc.Ret = 0 // handler bookkeeping happens guest-side; the stop itself is what tracers see
	case abi.SysFutex:
		return k.sysFutex(t, sc)
	case abi.SysSchedYield:
		sc.Ret = 0
	case abi.SysUname:
		k.sysUname(t, sc)
	case abi.SysSysinfo:
		k.sysSysinfo(t, sc)
	case abi.SysGetpid:
		sc.Ret = int64(p.PID)
	case abi.SysGetppid:
		sc.Ret = int64(p.PPID)
	case abi.SysGetTid:
		sc.Ret = int64(t.TID)
	case abi.SysGetuid:
		sc.Ret = int64(p.UID)
	case abi.SysGetgid:
		sc.Ret = int64(p.GID)
	case abi.SysSetuid:
		p.UID = uint32(sc.Arg[0])
		sc.Ret = 0
	case abi.SysUmask:
		old := p.Umask
		p.Umask = uint32(sc.Arg[0]) & 0o777
		sc.Ret = int64(old)
	case abi.SysBrk:
		p.brk += sc.Arg[0]
		sc.Ret = p.brkBase + p.brk
	case abi.SysMmap:
		// Address-space layout randomization: the returned address is a
		// boot/exec accident that programs sometimes embed in output.
		sc.Ret = p.mmapBase + p.mmapOff
		p.mmapOff += (sc.Arg[0] + 4095) &^ 4095
	case abi.SysPrctl:
		k.sysPrctl(t, sc)
	case abi.SysArchPrctl:
		k.sysArchPrctl(t, sc)
	case abi.SysChroot:
		n, err := k.FS.Resolve(lookupCtx(p), sc.Path, true)
		switch {
		case err != abi.OK:
			sc.SetErrno(err)
		case !n.IsDir():
			sc.SetErrno(abi.ENOTDIR)
		default:
			p.Root = n
			sc.Ret = 0
		}
	case abi.SysSync:
		sc.Ret = 0
	case abi.SysIoctl:
		k.sysIoctl(t, sc)
	case abi.SysFcntl:
		k.sysFcntl(t, sc)
	case abi.SysMount:
		sc.SetErrno(abi.EPERM)
	case abi.SysSchedAffinity:
		sc.Ret = 0
	case abi.SysSocket, abi.SysSocketpair, abi.SysBind, abi.SysListen,
		abi.SysConnect, abi.SysAccept, abi.SysAccept4, abi.SysSendto,
		abi.SysRecvfrom:
		return k.sysSocketCall(t, sc)
	default:
		sc.SetErrno(abi.ENOSYS)
	}
	return false
}

// --- file IO ----------------------------------------------------------------

func (k *Kernel) sysRead(t *Thread, sc *abi.Syscall) bool {
	p := t.Proc
	f, err := p.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return false
	}
	switch f.kind {
	case fdFile:
		n := f.ino.ReadAt(sc.Buf, f.pos)
		f.pos += int64(n)
		sc.Ret = int64(n)
	case fdPipeR:
		n, eof := f.pipe.Read(sc.Buf)
		if n == 0 && !eof {
			if f.flags&abi.ONonblock != 0 {
				sc.SetErrno(abi.EAGAIN)
				return false
			}
			return true
		}
		sc.Ret = int64(n)
	case fdPipeW:
		sc.SetErrno(abi.EBADF)
	case fdDevice:
		sc.Ret = int64(f.dev.ReadDev(sc.Buf))
	case fdConsole:
		sc.Ret = 0 // container stdin is at EOF
	case fdDir:
		sc.SetErrno(abi.EISDIR)
	case fdSocket:
		return k.sockRead(t, sc, f)
	}
	return false
}

func (k *Kernel) sysWrite(t *Thread, sc *abi.Syscall) bool {
	p := t.Proc
	f, err := p.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return false
	}
	switch f.kind {
	case fdFile:
		if f.flags&abi.OAppend != 0 {
			f.pos = int64(len(f.ino.Data))
		}
		n := f.ino.WriteAt(sc.Buf, f.pos)
		f.pos += int64(n)
		sc.Ret = int64(n)
	case fdPipeW:
		n, broken := f.pipe.Write(sc.Buf)
		if broken {
			k.postSignal(p, abi.SIGPIPE)
			sc.SetErrno(abi.EPIPE)
			return false
		}
		if n == 0 {
			if f.flags&abi.ONonblock != 0 {
				sc.SetErrno(abi.EAGAIN)
				return false
			}
			return true
		}
		sc.Ret = int64(n)
	case fdPipeR:
		sc.SetErrno(abi.EBADF)
	case fdDevice:
		sc.Ret = int64(f.dev.WriteDev(sc.Buf))
	case fdConsole:
		if f.consoleErr {
			k.Console.Err = append(k.Console.Err, sc.Buf...)
		} else {
			k.Console.Out = append(k.Console.Out, sc.Buf...)
		}
		sc.Ret = int64(len(sc.Buf))
	case fdDir:
		sc.SetErrno(abi.EISDIR)
	case fdSocket:
		return k.sockWrite(t, sc, f)
	}
	return false
}

func (k *Kernel) sysOpen(t *Thread, sc *abi.Syscall) {
	p := t.Proc
	flags := int(sc.Arg[0])
	mode := uint32(sc.Arg[1])
	if sc.Num == abi.SysCreat {
		flags = abi.OCreat | abi.OWronly | abi.OTrunc
	}
	path := sc.Path
	n, rerr := k.FS.Resolve(lookupCtx(p), path, true)
	if rerr == abi.ENOENT && flags&abi.OCreat != 0 {
		dir, name, perr := k.FS.ResolveParent(lookupCtx(p), path)
		if perr != abi.OK {
			sc.SetErrno(perr)
			return
		}
		var cerr abi.Errno
		n, cerr = k.FS.CreateFile(dir, name, mode&^p.Umask, p.UID, p.GID)
		if cerr != abi.OK {
			sc.SetErrno(cerr)
			return
		}
	} else if rerr != abi.OK {
		sc.SetErrno(rerr)
		return
	} else if flags&abi.OCreat != 0 && flags&abi.OExcl != 0 {
		sc.SetErrno(abi.EEXIST)
		return
	}
	if flags&abi.ODirectory != 0 && !n.IsDir() {
		sc.SetErrno(abi.ENOTDIR)
		return
	}
	f := k.newFD(FD{ino: n, flags: flags, cwd: p.CwdPath, path: path})
	switch {
	case n.IsDir():
		f.kind = fdDir
	case n.IsFIFO():
		f.pipe = n.Pipe
		if flags&(abi.OWronly|abi.ORdwr) != 0 {
			f.kind = fdPipeW
			f.pipe.AddWriter()
		} else {
			f.kind = fdPipeR
			f.pipe.AddReader()
		}
	case n.IsDevice():
		mk, ok := k.devices[n.DevID]
		if !ok {
			sc.SetErrno(abi.ENXIO)
			return
		}
		f.kind = fdDevice
		f.dev = mk()
		if n.DevID == "urandom" || n.DevID == "random" {
			k.Stats.UrandomOpens += p.Weight
		}
	default:
		f.kind = fdFile
		if flags&abi.OTrunc != 0 {
			n.Truncate(0)
		}
	}
	sc.Ret = int64(p.FDs.alloc(f))
}

func (k *Kernel) sysLseek(t *Thread, sc *abi.Syscall) {
	f, err := t.Proc.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if f.kind != fdFile {
		sc.SetErrno(abi.ESPIPE)
		return
	}
	var base int64
	switch sc.Arg[2] {
	case abi.SeekSet:
		base = 0
	case abi.SeekCur:
		base = f.pos
	case abi.SeekEnd:
		base = int64(len(f.ino.Data))
	default:
		sc.SetErrno(abi.EINVAL)
		return
	}
	np := base + sc.Arg[1]
	if np < 0 {
		sc.SetErrno(abi.EINVAL)
		return
	}
	f.pos = np
	sc.Ret = np
}

func (k *Kernel) sysStat(t *Thread, sc *abi.Syscall, follow bool) {
	n, err := k.FS.Resolve(lookupCtx(t.Proc), sc.Path, follow)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if out, ok := sc.Obj.(*abi.Stat); ok {
		n.Stat(out)
	}
	sc.Ret = 0
}

func (k *Kernel) sysFstat(t *Thread, sc *abi.Syscall) {
	f, err := t.Proc.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if f.ino == nil {
		sc.SetErrno(abi.EBADF)
		return
	}
	if out, ok := sc.Obj.(*abi.Stat); ok {
		f.ino.Stat(out)
	}
	sc.Ret = 0
}

func (k *Kernel) sysGetdents(t *Thread, sc *abi.Syscall) {
	f, err := t.Proc.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if f.kind != fdDir {
		sc.SetErrno(abi.ENOTDIR)
		return
	}
	if !f.dirRead {
		f.dirSnapshot = k.FS.ReadDirRaw(f.ino)
		f.dirRead = true
	}
	max := int(sc.Arg[1])
	if max <= 0 || max > len(f.dirSnapshot) {
		max = len(f.dirSnapshot)
	}
	chunk := f.dirSnapshot[:max]
	f.dirSnapshot = f.dirSnapshot[max:]
	if out, ok := sc.Obj.(*[]abi.Dirent); ok {
		*out = append([]abi.Dirent(nil), chunk...)
	}
	sc.Ret = int64(len(chunk))
}

func (k *Kernel) sysChdir(t *Thread, sc *abi.Syscall) {
	p := t.Proc
	n, err := k.FS.Resolve(lookupCtx(p), sc.Path, true)
	switch {
	case err != abi.OK:
		sc.SetErrno(err)
	case !n.IsDir():
		sc.SetErrno(abi.ENOTDIR)
	default:
		p.Cwd = n
		p.CwdPath = normPath(p.CwdPath, sc.Path)
		sc.Ret = 0
	}
}

func (k *Kernel) sysMkdir(t *Thread, sc *abi.Syscall) {
	p := t.Proc
	dir, name, err := k.FS.ResolveParent(lookupCtx(p), sc.Path)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	_, cerr := k.FS.Mkdir(dir, name, uint32(sc.Arg[0])&^p.Umask, p.UID, p.GID)
	sc.SetErrno(cerr)
}

// sysPathOp factors unlink/rmdir: resolve the parent, apply op.
func (k *Kernel) sysPathOp(t *Thread, sc *abi.Syscall, op func(dir *fs.Inode, name string) abi.Errno) {
	dir, name, err := k.FS.ResolveParent(lookupCtx(t.Proc), sc.Path)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	sc.SetErrno(op(dir, name))
}

func (k *Kernel) sysRename(t *Thread, sc *abi.Syscall) {
	ctx := lookupCtx(t.Proc)
	od, on, err := k.FS.ResolveParent(ctx, sc.Path)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	nd, nn, err := k.FS.ResolveParent(ctx, sc.Path2)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	sc.SetErrno(k.FS.Rename(od, on, nd, nn))
}

func (k *Kernel) sysLink(t *Thread, sc *abi.Syscall) {
	ctx := lookupCtx(t.Proc)
	target, err := k.FS.Resolve(ctx, sc.Path, true)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	dir, name, err := k.FS.ResolveParent(ctx, sc.Path2)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	sc.SetErrno(k.FS.Link(dir, name, target))
}

func (k *Kernel) sysSymlink(t *Thread, sc *abi.Syscall) {
	p := t.Proc
	dir, name, err := k.FS.ResolveParent(lookupCtx(p), sc.Path2)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	_, serr := k.FS.Symlink(dir, name, sc.Path, p.UID, p.GID)
	sc.SetErrno(serr)
}

func (k *Kernel) sysReadlink(t *Thread, sc *abi.Syscall) {
	n, err := k.FS.Resolve(lookupCtx(t.Proc), sc.Path, false)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if !n.IsSymlink() {
		sc.SetErrno(abi.EINVAL)
		return
	}
	if out, ok := sc.Obj.(*string); ok {
		*out = n.Target
	}
	sc.Ret = int64(len(n.Target))
}

func (k *Kernel) sysChmod(t *Thread, sc *abi.Syscall) {
	n, err := k.FS.Resolve(lookupCtx(t.Proc), sc.Path, true)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	n.Mode = n.Mode&abi.ModeTypeMask | uint32(sc.Arg[0])&abi.ModePermMask
	n.Ctime = k.WallClock()
	sc.Ret = 0
}

func (k *Kernel) sysChown(t *Thread, sc *abi.Syscall) {
	n, err := k.FS.Resolve(lookupCtx(t.Proc), sc.Path, true)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	n.UID, n.GID = uint32(sc.Arg[0]), uint32(sc.Arg[1])
	n.Ctime = k.WallClock()
	sc.Ret = 0
}

func (k *Kernel) sysTruncate(t *Thread, sc *abi.Syscall) {
	n, err := k.FS.Resolve(lookupCtx(t.Proc), sc.Path, true)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	sc.SetErrno(n.Truncate(sc.Arg[0]))
}

func (k *Kernel) sysFtruncate(t *Thread, sc *abi.Syscall) {
	f, err := t.Proc.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if f.ino == nil {
		sc.SetErrno(abi.EBADF)
		return
	}
	sc.SetErrno(f.ino.Truncate(sc.Arg[0]))
}

// sysUtimes sets atime/mtime. A nil Obj means "stamp with the current
// time" — the kernel uses the host wall clock, which is precisely the
// irreproducible path DetTrace intercepts by substituting a struct from its
// scratch page (§5.10).
func (k *Kernel) sysUtimes(t *Thread, sc *abi.Syscall) {
	n, err := k.FS.Resolve(lookupCtx(t.Proc), sc.Path, true)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if times, ok := sc.Obj.(*[2]abi.Timespec); ok && times != nil {
		n.Atime = times[0].Nanos()
		n.Mtime = times[1].Nanos()
	} else {
		now := k.WallClock()
		n.Atime, n.Mtime = now, now
	}
	n.Ctime = k.WallClock()
	sc.Ret = 0
}

// --- time, timers, signals ---------------------------------------------------

func (k *Kernel) sysNanosleep(t *Thread, sc *abi.Syscall) bool {
	if sc.Attempts == 0 {
		t.sleepUntil = k.now + sc.Arg[0]
		return true
	}
	if k.now < t.sleepUntil {
		return true
	}
	t.sleepUntil = 0
	sc.Ret = 0
	return false
}

func (k *Kernel) sysAlarm(t *Thread, sc *abi.Syscall) {
	// Real timer expiry carries interrupt-arrival jitter.
	delay := sc.Arg[0] * 1e9
	if delay > 0 {
		delay += k.Entropy.Int63n(1e6)
	}
	k.armTimer(t.Proc, delay, 0, abi.SIGALRM)
	sc.Ret = 0
}

func (k *Kernel) sysSetitimer(t *Thread, sc *abi.Syscall) {
	it, ok := sc.Obj.(*abi.Itimerval)
	if !ok || it == nil {
		k.disarmTimer(t.Proc, abi.SIGVTALRM)
		sc.Ret = 0
		return
	}
	k.armTimer(t.Proc, it.Value, it.Interval, abi.SIGVTALRM)
	sc.Ret = 0
}

func (k *Kernel) sysKill(t *Thread, sc *abi.Syscall) {
	pid := int(sc.Arg[0])
	sig := abi.Signal(sc.Arg[1])
	target, ok := k.procs[pid]
	if !ok {
		sc.SetErrno(abi.ESRCH)
		return
	}
	if sig != 0 {
		k.postSignal(target, sig)
	}
	sc.Ret = 0
}

// --- processes ---------------------------------------------------------------

// anonPipeCapacity is deliberately small so pipe traffic exhibits the
// partial reads and writes DetTrace's Fig.-4 retry machinery exists for.
const anonPipeCapacity = 512

func (k *Kernel) sysPipe(t *Thread, sc *abi.Syscall) {
	p := t.Proc
	pipe := fs.NewPipe(anonPipeCapacity)
	pipe.AddReader()
	pipe.AddWriter()
	r := p.FDs.alloc(k.newFD(FD{kind: fdPipeR, pipe: pipe}))
	w := p.FDs.alloc(k.newFD(FD{kind: fdPipeW, pipe: pipe}))
	if out, ok := sc.Obj.(*[2]int); ok {
		out[0], out[1] = r, w
	}
	sc.Ret = 0
}

func (k *Kernel) sysFork(t *Thread, sc *abi.Syscall) {
	fn, ok := sc.Obj.(ProgramFn)
	if !ok {
		sc.SetErrno(abi.EINVAL)
		return
	}
	k.Stats.Spawns += t.Proc.Weight
	if sc.Num == abi.SysClone && sc.Arg[0]&abi.CloneThread != 0 {
		ct := k.newThread(t.Proc, fn)
		ct.Clock = t.Clock + k.Cost.SpawnCost
		ct.LClock = t.LClock + k.Cost.SpawnCost
		k.Policy.OnSpawn(t, ct)
		k.startThread(ct)
		sc.Ret = int64(ct.TID)
		return
	}
	child := k.newProc(t.Proc)
	child.Comm = t.Proc.Comm
	child.Argv = t.Proc.Argv
	child.CwdPath = t.Proc.CwdPath
	ct := k.newThread(child, fn)
	ct.Clock = t.Clock + k.Cost.SpawnCost
	ct.LClock = t.LClock + k.Cost.SpawnCost
	k.Policy.OnSpawn(t, ct)
	k.startThread(ct)
	sc.Ret = int64(child.PID)
}

func (k *Kernel) sysExecve(t *Thread, sc *abi.Syscall) {
	p := t.Proc
	args, _ := sc.Obj.(*ExecArgs)
	n, err := k.FS.Resolve(lookupCtx(p), sc.Path, true)
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	if !n.IsRegular() {
		sc.SetErrno(abi.EACCES)
		return
	}
	if n.Mode&0o111 == 0 {
		sc.SetErrno(abi.EACCES)
		return
	}
	img := &ExecImage{Path: sc.Path, Exe: n.Data}
	if args != nil {
		img.Argv = args.Argv
		img.Env = args.Env
	}
	if len(img.Argv) == 0 {
		img.Argv = []string{sc.Path}
	}
	if k.resolver == nil {
		sc.SetErrno(abi.ENOSYS)
		return
	}
	fn, rerr := k.resolver(img)
	if rerr != abi.OK {
		sc.SetErrno(rerr)
		return
	}
	k.Stats.Execs += p.Weight
	p.Comm = baseName(sc.Path)
	p.Argv = img.Argv
	if img.Env != nil {
		p.Env = img.Env
	}
	// A fresh image maps a fresh vDSO and drops any tracer scratch page;
	// the tracer's OnExec hook re-establishes both (§5.3, §5.10).
	p.VdsoReplaced = false
	p.ScratchPage = false
	p.handlers = nil
	p.brkBase = 0x5000_0000 + k.Entropy.Int63n(1<<30)&^4095 // ASLR
	p.mmapBase = 0x7f00_0000_0000 + k.Entropy.Int63n(1<<36)&^4095
	p.mmapOff = 0
	t.pendingExec = fn
	t.Clock += k.Cost.ExecCost
	t.LClock += k.Cost.ExecCost
	k.Policy.OnExec(t)
	sc.Ret = 0
}

func (k *Kernel) sysWait4(t *Thread, sc *abi.Syscall) bool {
	p := t.Proc
	want := int(sc.Arg[0])
	for i, z := range p.zombies {
		if want == -1 || z.pid == want {
			p.zombies = append(p.zombies[:i], p.zombies[i+1:]...)
			if out, ok := sc.Obj.(*WaitResult); ok {
				out.PID = z.pid
				out.Status = z.status
				out.Usage = z.usage
			}
			sc.Ret = int64(z.pid)
			return false
		}
	}
	if !p.hasLiveChildren() {
		sc.SetErrno(abi.ECHILD)
		return false
	}
	if sc.Arg[1]&abi.WNOHANG != 0 {
		sc.Ret = 0
		return false
	}
	return true
}

func (k *Kernel) sysFutex(t *Thread, sc *abi.Syscall) bool {
	p := t.Proc
	addr := sc.Arg[0]
	switch sc.Arg[1] {
	case abi.FutexWait:
		if t.futexWoken {
			t.futexWoken = false
			sc.Ret = 0
			return false
		}
		if p.Mem[addr] != sc.Arg[2] {
			sc.SetErrno(abi.EAGAIN)
			return false
		}
		if sc.Attempts == 0 {
			p.futexWaiters[addr] = append(p.futexWaiters[addr], t)
		}
		return true
	case abi.FutexWake:
		n := int(sc.Arg[2])
		waiters := p.futexWaiters[addr]
		woken := 0
		for len(waiters) > 0 && woken < n {
			wt := waiters[0]
			waiters = waiters[1:]
			if wt.dead {
				continue
			}
			wt.wakeReady = true
			wt.futexWoken = true
			woken++
		}
		p.futexWaiters[addr] = waiters
		sc.Ret = int64(woken)
		return false
	default:
		sc.SetErrno(abi.ENOSYS)
		return false
	}
}

// --- identity & machine ------------------------------------------------------

func (k *Kernel) sysUname(t *Thread, sc *abi.Syscall) {
	if out, ok := sc.Obj.(*abi.Utsname); ok {
		*out = abi.Utsname{
			Sysname:  "Linux",
			Nodename: k.Profile.Hostname,
			Release:  k.Profile.KernelRelease,
			Version:  k.Profile.KernelVersion,
			Machine:  "x86_64",
		}
	}
	sc.Ret = 0
}

func (k *Kernel) sysSysinfo(t *Thread, sc *abi.Syscall) {
	if out, ok := sc.Obj.(*abi.Sysinfo); ok {
		*out = abi.Sysinfo{
			Uptime:   k.now / 1e9,
			TotalRAM: uint64(k.Profile.RAMMB) << 20,
			FreeRAM:  uint64(k.Profile.RAMMB) << 19,
			Procs:    uint16(len(k.procs)),
			NumCPU:   len(k.cores),
		}
	}
	sc.Ret = 0
}

func (k *Kernel) sysPrctl(t *Thread, sc *abi.Syscall) {
	switch sc.Arg[0] {
	case abi.PrSetTSC:
		t.Proc.Trap.TSCTrap = sc.Arg[1] == abi.PrTSCSigsegv
		sc.Ret = 0
	default:
		sc.SetErrno(abi.EINVAL)
	}
}

func (k *Kernel) sysArchPrctl(t *Thread, sc *abi.Syscall) {
	switch sc.Arg[0] {
	case abi.ArchSetCpuid:
		if !k.Profile.SupportsCpuidInterception() {
			sc.SetErrno(abi.ENODEV)
			return
		}
		t.Proc.Trap.CpuidTrap = sc.Arg[1] == abi.ArchCpuidTrap
		sc.Ret = 0
	default:
		sc.SetErrno(abi.EINVAL)
	}
}

func (k *Kernel) sysIoctl(t *Thread, sc *abi.Syscall) {
	_, err := t.Proc.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	// No terminal emulation: everything is ENOTTY, reproducibly.
	sc.SetErrno(abi.ENOTTY)
}

func (k *Kernel) sysFcntl(t *Thread, sc *abi.Syscall) {
	f, err := t.Proc.FDs.get(int(sc.Arg[0]))
	if err != abi.OK {
		sc.SetErrno(err)
		return
	}
	const (
		fGetfl     = 3
		fSetfl     = 4
		fSetPipeSz = 1031
	)
	switch sc.Arg[1] {
	case fGetfl:
		sc.Ret = int64(f.flags)
	case fSetfl:
		f.flags = int(sc.Arg[2])
		sc.Ret = 0
	case fSetPipeSz:
		if f.pipe == nil {
			sc.SetErrno(abi.EBADF)
			return
		}
		f.pipe.SetCapacity(int(sc.Arg[2]))
		sc.Ret = sc.Arg[2]
	default:
		sc.SetErrno(abi.EINVAL)
	}
}

// --- helpers ------------------------------------------------------------------

// normPath joins rel onto cwd and resolves "."/".." textually.
func normPath(cwd, rel string) string {
	p := rel
	if !strings.HasPrefix(rel, "/") {
		p = cwd + "/" + rel
	}
	var out []string
	for _, c := range strings.Split(p, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, c)
		}
	}
	return "/" + strings.Join(out, "/")
}

func baseName(p string) string {
	i := strings.LastIndex(p, "/")
	return p[i+1:]
}
