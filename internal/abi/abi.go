// Package abi defines the guest-visible Linux ABI of the simulated kernel:
// system call numbers, errno values, file modes and flags, and the wire
// structures (Stat, Dirent, Utsname, ...) that system calls read and write.
//
// The numbering follows the x86-64 Linux syscall table so that traces,
// seccomp filters and debug output read like the real thing. Only the calls
// the simulated kernel implements are listed; attempting any other number
// returns ENOSYS, exactly as the paper's taxonomy requires for the
// "unsupported, reproducible error" mitigation class.
package abi

import "fmt"

// Errno is a Linux error number as seen by guest programs. The zero value
// means success.
type Errno int32

// Errno values used by the simulated kernel (x86-64 Linux numbering).
const (
	OK          Errno = 0
	EPERM       Errno = 1
	ENOENT      Errno = 2
	ESRCH       Errno = 3
	EINTR       Errno = 4
	EIO         Errno = 5
	ENXIO       Errno = 6
	EBADF       Errno = 9
	ECHILD      Errno = 10
	EAGAIN      Errno = 11
	ENOMEM      Errno = 12
	EACCES      Errno = 13
	EFAULT      Errno = 14
	EBUSY       Errno = 16
	EEXIST      Errno = 17
	EXDEV       Errno = 18
	ENODEV      Errno = 19
	ENOTDIR     Errno = 20
	EISDIR      Errno = 21
	EINVAL      Errno = 22
	ENFILE      Errno = 23
	EMFILE      Errno = 24
	ENOTTY      Errno = 25
	EFBIG       Errno = 27
	ENOSPC      Errno = 28
	ESPIPE      Errno = 29
	EROFS       Errno = 30
	EMLINK      Errno = 31
	EPIPE       Errno = 32
	ERANGE      Errno = 34
	EDEADLK     Errno = 35
	ENAMETOOLON Errno = 36
	ENOSYS      Errno = 38
	ENOTEMPTY   Errno = 39
	ELOOP       Errno = 40
	ECONNRESET  Errno = 104
	ENOTCONN    Errno = 107
	ETIMEDOUT   Errno = 110
	ECONNREFUSE Errno = 111
)

var errnoNames = map[Errno]string{
	OK: "OK", EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH",
	EINTR: "EINTR", EIO: "EIO", ENXIO: "ENXIO", EBADF: "EBADF",
	ECHILD: "ECHILD", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES",
	EFAULT: "EFAULT", EBUSY: "EBUSY", EEXIST: "EEXIST", EXDEV: "EXDEV",
	ENODEV: "ENODEV", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL",
	ENFILE: "ENFILE", EMFILE: "EMFILE", ENOTTY: "ENOTTY", EFBIG: "EFBIG",
	ENOSPC: "ENOSPC", ESPIPE: "ESPIPE", EROFS: "EROFS", EMLINK: "EMLINK",
	EPIPE: "EPIPE", ERANGE: "ERANGE", EDEADLK: "EDEADLK",
	ENAMETOOLON: "ENAMETOOLONG", ENOSYS: "ENOSYS", ENOTEMPTY: "ENOTEMPTY",
	ELOOP: "ELOOP", ECONNRESET: "ECONNRESET", ENOTCONN: "ENOTCONN",
	ETIMEDOUT: "ETIMEDOUT", ECONNREFUSE: "ECONNREFUSED",
}

// Error implements the error interface so Errno values can flow through
// ordinary Go error handling inside guest programs.
func (e Errno) Error() string { return e.String() }

// String returns the symbolic name, e.g. "ENOENT".
func (e Errno) String() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("errno(%d)", int32(e))
}

// Sysno is an x86-64 Linux system call number.
type Sysno int

// System call numbers implemented by the simulated kernel.
const (
	SysRead          Sysno = 0
	SysWrite         Sysno = 1
	SysOpen          Sysno = 2
	SysClose         Sysno = 3
	SysStat          Sysno = 4
	SysFstat         Sysno = 5
	SysLstat         Sysno = 6
	SysLseek         Sysno = 8
	SysMmap          Sysno = 9
	SysBrk           Sysno = 12
	SysRtSigaction   Sysno = 13
	SysIoctl         Sysno = 16
	SysPipe          Sysno = 22
	SysSchedYield    Sysno = 24
	SysDup2          Sysno = 33
	SysPause         Sysno = 34
	SysNanosleep     Sysno = 35
	SysGetitimer     Sysno = 36
	SysAlarm         Sysno = 37
	SysSetitimer     Sysno = 38
	SysGetpid        Sysno = 39
	SysSocket        Sysno = 41
	SysConnect       Sysno = 42
	SysAccept        Sysno = 43
	SysBind          Sysno = 49
	SysListen        Sysno = 50
	SysClone         Sysno = 56
	SysFork          Sysno = 57
	SysExecve        Sysno = 59
	SysExit          Sysno = 60
	SysWait4         Sysno = 61
	SysKill          Sysno = 62
	SysUname         Sysno = 63
	SysFutex         Sysno = 202
	SysFcntl         Sysno = 72
	SysTruncate      Sysno = 76
	SysFtruncate     Sysno = 77
	SysGetdents      Sysno = 78
	SysGetcwd        Sysno = 79
	SysChdir         Sysno = 80
	SysRename        Sysno = 82
	SysMkdir         Sysno = 83
	SysRmdir         Sysno = 84
	SysCreat         Sysno = 85
	SysLink          Sysno = 86
	SysUnlink        Sysno = 87
	SysSymlink       Sysno = 88
	SysReadlink      Sysno = 89
	SysChmod         Sysno = 90
	SysChown         Sysno = 92
	SysUmask         Sysno = 95
	SysGettimeofday  Sysno = 96
	SysSysinfo       Sysno = 99
	SysGetuid        Sysno = 102
	SysGetgid        Sysno = 104
	SysSetuid        Sysno = 105
	SysGetppid       Sysno = 110
	SysChroot        Sysno = 161
	SysSync          Sysno = 162
	SysMount         Sysno = 165
	SysTime          Sysno = 201
	SysGetTid        Sysno = 186
	SysSchedAffinity Sysno = 204
	SysClockGettime  Sysno = 228
	SysExitGroup     Sysno = 231
	SysUtimes        Sysno = 235
	SysOpenat        Sysno = 257
	SysUnlinkat      Sysno = 263
	SysUtimensat     Sysno = 280
	SysAccept4       Sysno = 288
	SysPipe2         Sysno = 293
	SysPrctl         Sysno = 157
	SysArchPrctl     Sysno = 158
	SysPersonality   Sysno = 135
	SysGetrandom     Sysno = 318
	SysAccess        Sysno = 21
	SysSocketpair    Sysno = 53
	SysSendto        Sysno = 44
	SysRecvfrom      Sysno = 45

	// SysFetch is a pseudo system call (no Linux equivalent): fetch an
	// external file by URL. The stock kernel has no network and returns
	// ENOSYS; DetTrace services it from the container's declared,
	// checksum-verified download set — the §3 "limited forms of external
	// interaction" extension.
	SysFetch Sysno = 999
)

// SysnoSlots bounds the dense per-syscall tables used on hot paths (seccomp
// verdicts, kernel event counters): every Sysno above, including the SysFetch
// pseudo-call, is below it.
const SysnoSlots = 1024

// SysnoLinux bounds the real Linux calls above: every Sysno but the SysFetch
// pseudo-call is below it. A table that counts calls can start this long and
// grow to SysnoSlots only when a number past it arrives.
const SysnoLinux = 320

var sysNames = map[Sysno]string{
	SysRead: "read", SysWrite: "write", SysOpen: "open", SysClose: "close",
	SysStat: "stat", SysFstat: "fstat", SysLstat: "lstat", SysLseek: "lseek",
	SysMmap: "mmap", SysBrk: "brk", SysRtSigaction: "rt_sigaction",
	SysIoctl: "ioctl", SysPipe: "pipe", SysSchedYield: "sched_yield",
	SysDup2: "dup2", SysPause: "pause", SysNanosleep: "nanosleep",
	SysGetitimer: "getitimer", SysAlarm: "alarm", SysSetitimer: "setitimer",
	SysGetpid: "getpid", SysSocket: "socket", SysConnect: "connect",
	SysAccept: "accept", SysBind: "bind", SysListen: "listen",
	SysClone: "clone", SysFork: "fork", SysExecve: "execve", SysExit: "exit",
	SysWait4: "wait4", SysKill: "kill", SysUname: "uname", SysFutex: "futex",
	SysFcntl: "fcntl", SysTruncate: "truncate", SysFtruncate: "ftruncate",
	SysGetdents: "getdents", SysGetcwd: "getcwd", SysChdir: "chdir",
	SysRename: "rename", SysMkdir: "mkdir", SysRmdir: "rmdir",
	SysCreat: "creat", SysLink: "link", SysUnlink: "unlink",
	SysSymlink: "symlink", SysReadlink: "readlink", SysChmod: "chmod",
	SysChown: "chown", SysUmask: "umask", SysGettimeofday: "gettimeofday",
	SysSysinfo: "sysinfo", SysGetuid: "getuid", SysGetgid: "getgid",
	SysSetuid: "setuid", SysGetppid: "getppid", SysChroot: "chroot",
	SysSync: "sync", SysMount: "mount", SysTime: "time", SysGetTid: "gettid",
	SysSchedAffinity: "sched_setaffinity", SysClockGettime: "clock_gettime",
	SysExitGroup: "exit_group", SysUtimes: "utimes", SysOpenat: "openat",
	SysUnlinkat: "unlinkat", SysUtimensat: "utimensat", SysAccept4: "accept4",
	SysPipe2: "pipe2", SysPrctl: "prctl", SysArchPrctl: "arch_prctl",
	SysGetrandom: "getrandom", SysAccess: "access", SysPersonality: "personality",
	SysFetch:      "fetch",
	SysSocketpair: "socketpair", SysSendto: "sendto", SysRecvfrom: "recvfrom",
}

// Sysnos returns every known system call number — the dispatch universe,
// including the fetch pseudo-call — in no particular order. Tests use it to
// check that interception layers cover the whole universe.
func Sysnos() []Sysno {
	out := make([]Sysno, 0, len(sysNames))
	for nr := range sysNames {
		out = append(out, nr)
	}
	return out
}

// String returns the syscall name, e.g. "getdents".
func (s Sysno) String() string {
	if n, ok := sysNames[s]; ok {
		return n
	}
	return fmt.Sprintf("sys_%d", int(s))
}

// File type bits for Stat.Mode, matching Linux S_IF* values.
const (
	ModeTypeMask = 0o170000
	ModeRegular  = 0o100000
	ModeDir      = 0o040000
	ModeSymlink  = 0o120000
	ModeFIFO     = 0o010000
	ModeCharDev  = 0o020000
	ModeSocket   = 0o140000
	ModePermMask = 0o7777
)

// Open flags, matching Linux O_* values.
const (
	ORdonly    = 0x0
	OWronly    = 0x1
	ORdwr      = 0x2
	OCreat     = 0x40
	OExcl      = 0x80
	OTrunc     = 0x200
	OAppend    = 0x400
	ONonblock  = 0x800
	ODirectory = 0x10000
)

// lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Clone flags (subset). CloneThread creates a thread sharing the address
// space, fd table and futex namespace of the caller.
const (
	CloneVM     = 0x100
	CloneFiles  = 0x400
	CloneThread = 0x10000
)

// wait4 options.
const WNOHANG = 1

// Futex operations.
const (
	FutexWait = 0
	FutexWake = 1
)

// prctl / arch_prctl operations used by DetTrace for instruction trapping.
const (
	PrSetTSC       = 26 // prctl: configure rdtsc trapping
	PrTSCEnable    = 1
	PrTSCSigsegv   = 2 // rdtsc raises a trap the tracer observes
	ArchSetCpuid   = 0x1012
	ArchCpuidTrap  = 0 // cpuid faults and is emulated by the tracer
	ArchCpuidAllow = 1
)

// Signal numbers (subset).
type Signal int

const (
	SIGHUP    Signal = 1
	SIGINT    Signal = 2
	SIGILL    Signal = 4
	SIGABRT   Signal = 6
	SIGKILL   Signal = 9
	SIGSEGV   Signal = 11
	SIGPIPE   Signal = 13
	SIGALRM   Signal = 14
	SIGTERM   Signal = 15
	SIGCHLD   Signal = 17
	SIGUSR1   Signal = 10
	SIGUSR2   Signal = 12
	SIGVTALRM Signal = 26
)

var sigNames = map[Signal]string{
	SIGHUP: "SIGHUP", SIGINT: "SIGINT", SIGILL: "SIGILL", SIGABRT: "SIGABRT",
	SIGKILL: "SIGKILL", SIGSEGV: "SIGSEGV", SIGPIPE: "SIGPIPE",
	SIGALRM: "SIGALRM", SIGTERM: "SIGTERM", SIGCHLD: "SIGCHLD",
	SIGUSR1: "SIGUSR1", SIGUSR2: "SIGUSR2", SIGVTALRM: "SIGVTALRM",
}

// String returns the symbolic signal name.
func (s Signal) String() string {
	if n, ok := sigNames[s]; ok {
		return n
	}
	return fmt.Sprintf("signal(%d)", int(s))
}

// Timespec is a (seconds, nanoseconds) pair as used by stat and utimensat.
type Timespec struct {
	Sec  int64
	Nsec int64
}

// Nanos returns the timespec as a single nanosecond count.
func (t Timespec) Nanos() int64 { return t.Sec*1e9 + t.Nsec }

// TimespecFromNanos converts a nanosecond count into a Timespec.
func TimespecFromNanos(ns int64) Timespec {
	return Timespec{Sec: ns / 1e9, Nsec: ns % 1e9}
}

// Stat is the structure filled in by the stat family of system calls.
type Stat struct {
	Dev     uint64
	Ino     uint64
	Mode    uint32
	Nlink   uint32
	UID     uint32
	GID     uint32
	Size    int64
	Blksize int64
	Blocks  int64
	Atime   Timespec
	Mtime   Timespec
	Ctime   Timespec
}

// IsDir reports whether the mode describes a directory.
func (s *Stat) IsDir() bool { return s.Mode&ModeTypeMask == ModeDir }

// IsRegular reports whether the mode describes a regular file.
func (s *Stat) IsRegular() bool { return s.Mode&ModeTypeMask == ModeRegular }

// Dirent is a single directory entry as returned by getdents.
type Dirent struct {
	Ino  uint64
	Type uint32 // one of the ModeType* constants shifted per Linux DT_*; we store the S_IF bits
	Name string
}

// Utsname is the structure filled in by uname.
type Utsname struct {
	Sysname  string
	Nodename string
	Release  string
	Version  string
	Machine  string
}

// Sysinfo is the structure filled in by sysinfo.
type Sysinfo struct {
	Uptime   int64
	TotalRAM uint64
	FreeRAM  uint64
	Procs    uint16
	NumCPU   int
}

// Itimerval describes an interval timer (setitimer), in nanoseconds.
type Itimerval struct {
	Interval int64
	Value    int64
}

// Rusage is a minimal resource-usage report for wait4.
type Rusage struct {
	UserNanos   int64
	SystemNanos int64
}

// WaitStatus encodes a child's exit status the way the kernel reports it.
type WaitStatus int

// Exited reports whether the status encodes a normal exit.
func (w WaitStatus) Exited() bool { return w&0x7f == 0 }

// ExitCode returns the exit code for a normally exited child.
func (w WaitStatus) ExitCode() int { return int(w>>8) & 0xff }

// Signaled reports whether the child was terminated by a signal.
func (w WaitStatus) Signaled() bool { return w&0x7f != 0 }

// TermSignal returns the terminating signal number.
func (w WaitStatus) TermSignal() Signal { return Signal(w & 0x7f) }

// ExitStatus builds a WaitStatus for a normal exit with the given code.
func ExitStatus(code int) WaitStatus { return WaitStatus((code & 0xff) << 8) }

// SignalStatus builds a WaitStatus for a signal-terminated child.
func SignalStatus(sig Signal) WaitStatus { return WaitStatus(sig) & 0x7f }
