package kernel

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// This file is the tracer-facing introspection surface: the operations a
// ptrace supervisor performs through /proc and PTRACE_* requests, expressed
// as kernel methods. Policies (DetTrace, rr) use these; guest programs
// cannot reach them.

// ActionIsSyscall reports whether the thread's pending action is a system
// call stop (as opposed to compute, an instruction, or exit).
func (t *Thread) ActionIsSyscall() bool {
	return t.act != nil && t.act.kind == yieldSyscall
}

// PendingSyscall returns the syscall of the thread's pending action, or nil.
func (t *Thread) PendingSyscall() *abi.Syscall {
	if t.ActionIsSyscall() {
		return t.act.sc
	}
	return nil
}

// Dead reports whether the thread has exited or been killed.
func (t *Thread) Dead() bool { return t.dead }

// Parked returns the threads currently blocked under policy semantics — the
// contents of DetTrace's Blocked queue, in park order.
func (k *Kernel) Parked() []*Thread { return k.parked }

// ParkedReady reports whether a parked thread's syscall could now complete,
// letting the scheduler skip pointless replays.
func (k *Kernel) ParkedReady(t *Thread) bool {
	if t.act == nil || t.act.sc == nil {
		return true
	}
	return k.syscallReady(t, t.act.sc)
}

// ResolveInode resolves a path in p's filesystem view, as a tracer does by
// reading /proc/<pid>/root/<path>.
func (k *Kernel) ResolveInode(p *Proc, path string, follow bool) (*fs.Inode, abi.Errno) {
	return k.FS.Resolve(lookupCtx(p), path, follow)
}

// FDInode returns the inode behind an open descriptor, as a tracer learns
// it from /proc/<pid>/fd/<n>.
func (k *Kernel) FDInode(p *Proc, fd int) (*fs.Inode, abi.Errno) {
	f, err := p.FDs.get(fd)
	if err != abi.OK {
		return nil, err
	}
	if f.ino == nil {
		return nil, abi.EBADF
	}
	return f.ino, abi.OK
}

// FDPath returns the path a descriptor was opened with, as /proc reports.
func (k *Kernel) FDPath(p *Proc, fd int) (string, abi.Errno) {
	f, err := p.FDs.get(fd)
	if err != abi.OK {
		return "", err
	}
	if f.path == "" {
		return "", abi.OK
	}
	return normPath(f.cwd, f.path), abi.OK
}

// PostSignal lets a tracer inject a signal into a process, the way DetTrace
// delivers "instantaneously expiring" timers (§5.4).
func (k *Kernel) PostSignal(p *Proc, sig abi.Signal) { k.postSignal(p, sig) }

// ProcOf returns the process with the given raw PID, if it is still alive.
func (k *Kernel) ProcOf(pid int) (*Proc, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// LiveProcs returns the number of live processes.
func (k *Kernel) LiveProcs() int { return len(k.procs) }

// DisableASLR pins the process's heap and mmap bases to fixed canonical
// addresses, as DetTrace's container setup does (reprotest's ASLR variation
// must not reach the tracee).
func (p *Proc) DisableASLR() {
	p.brkBase = 0x5000_0000
	p.brk = 0
	p.mmapBase = 0x7f00_0000_0000
	p.mmapOff = 0
}

// ExitCode returns the process's exit code once it has exited.
func (p *Proc) ExitCode() int { return p.exitCode }

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool { return p.exited }
