package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"repro/internal/abi"
	"repro/internal/kernel"
)

// This file holds DetTrace's per-syscall determinization handlers — the
// concrete realization of the §5 taxonomy. The syscall table (syscalls.go)
// names each call's handlers: an enter handler runs at the pre-syscall stop
// (emulate, rewrite arguments, or abort), an exit handler at the
// post-syscall stop (rewrite results, inject retries). On the buffered path
// the in-tracee wrapper runs the same handlers.

// emulate is the enter result of a handler that answered the call itself.
func emulate(postCost int64) kernel.EnterResult {
	return kernel.EnterResult{Disposition: kernel.DispEmulate, PostCost: postCost}
}

// writeMem charges n writes of tracee memory at a traced stop. The buffered
// path runs inside the tracee, so its answer lands with no tracer round
// trip: nothing to charge or count.
func (c *Container) writeMem(t *kernel.Thread, sc *abi.Syscall, n int64) int64 {
	if c.verdictOf(t, sc) == actBuffer {
		return 0
	}
	return c.sess.WriteMem(t.Proc.Weight, n)
}

// readProc is writeMem's twin for one /proc lookup.
func (c *Container) readProc(t *kernel.Thread, sc *abi.Syscall) int64 {
	if c.verdictOf(t, sc) == actBuffer {
		return 0
	}
	return c.sess.ReadProc(t.Proc.Weight)
}

// enterTime answers time with logical time (§5.3): a count of time queries,
// monotone and reproducible.
func (c *Container) enterTime(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	sc.Ret = c.logicalSeconds(t.Proc)
	return emulate(0)
}

// enterClock is enterTime for gettimeofday and clock_gettime.
func (c *Container) enterClock(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	secs := c.logicalSeconds(t.Proc)
	var cost int64
	if out, ok := sc.Obj.(*abi.Timespec); ok && out != nil {
		*out = abi.Timespec{Sec: secs}
		cost = c.writeMem(t, sc, 1)
	}
	sc.Ret = 0
	return emulate(cost)
}

// enterNanosleep turns sleeps into NOPs: the call is rewritten to the
// harmless `time` syscall before the kernel examines it (§5.10).
func (c *Container) enterNanosleep(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	sc.Ret = 0
	return emulate(0)
}

// enterAlarm expires timers "instantaneously" (§5.4): DetTrace itself sends
// the signal and the kernel never sees a timer.
func (c *Container) enterAlarm(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	if sc.Arg[0] > 0 {
		c.k.PostSignal(t.Proc, abi.SIGALRM)
	}
	sc.Ret = 0
	return emulate(0)
}

// enterSetitimer is enterAlarm for interval timers.
func (c *Container) enterSetitimer(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	if it, ok := sc.Obj.(*abi.Itimerval); ok && it != nil && it.Value > 0 {
		c.k.PostSignal(t.Proc, abi.SIGVTALRM)
	}
	sc.Ret = 0
	return emulate(0)
}

// enterGetrandom serves OS randomness from the container's seeded LFSR — or,
// with the escape hatch enabled, logged/replayed true entropy (§5.2).
func (c *Container) enterGetrandom(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	c.fillRandom(sc.Buf)
	cost := c.writeMem(t, sc, 1)
	sc.Ret = int64(len(sc.Buf))
	return emulate(cost)
}

// enterUname reports the same simple machine on every host (§3): a pinned
// kernel version and hostname, hiding the host's.
func (c *Container) enterUname(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	var cost int64
	if out, ok := sc.Obj.(*abi.Utsname); ok && out != nil {
		*out = abi.Utsname{
			Sysname:  "Linux",
			Nodename: "dettrace",
			Release:  "4.0.0-dettrace",
			Version:  "#1 SMP",
			Machine:  "x86_64",
		}
		cost = c.writeMem(t, sc, 1)
	}
	sc.Ret = 0
	return emulate(cost)
}

// enterSysinfo reports a canonical uniprocessor with fixed memory (§5.8).
func (c *Container) enterSysinfo(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	var cost int64
	if out, ok := sc.Obj.(*abi.Sysinfo); ok && out != nil {
		*out = abi.Sysinfo{
			Uptime:   t.Proc.TimeCallCount,
			TotalRAM: 4 << 30,
			FreeRAM:  2 << 30,
			Procs:    uint16(c.nextVPID - 1),
			NumCPU:   1,
		}
		cost = c.writeMem(t, sc, 1)
	}
	sc.Ret = 0
	return emulate(cost)
}

// enterUtimes replaces a null times pointer, which would make the kernel
// stamp host wall-clock time, with a reproducible struct in the tracee's
// scratch page (§5.10).
func (c *Container) enterUtimes(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	var er kernel.EnterResult
	if sc.Obj == nil {
		times := [2]abi.Timespec{{}, {Sec: c.nextMtime}}
		sc.Obj = &times
		er.PostCost = c.writeMem(t, sc, 1)
	}
	return er
}

// enterOpen checks existence before the open, so the post stop can tell
// creations from re-opens (§5.5).
func (c *Container) enterOpen(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	_, rerr := c.k.ResolveInode(t.Proc, sc.Path, true)
	c.pendingOpen[t] = rerr == abi.OK
	return kernel.EnterResult{PreCost: c.readProc(t, sc)}
}

// enterWait4 translates a virtual pid argument back to the host pid.
func (c *Container) enterWait4(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	if sc.Arg[0] > 0 {
		if raw, ok := c.rawPid[int(sc.Arg[0])]; ok {
			sc.Arg[0] = int64(raw)
		}
	}
	return kernel.EnterResult{}
}

// enterKill vets kill: self-signals are permitted (precise-exception style),
// cross-process signals are unsupported (§5.4) — unless the experimental
// reproducible-delivery mode is on, in which case the deterministic
// scheduler makes the delivery point a pure function of logical history.
func (c *Container) enterKill(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	target := int(sc.Arg[0])
	if raw, ok := c.rawPid[target]; ok {
		sc.Arg[0] = int64(raw)
		target = raw
	}
	if target != t.Proc.PID && !c.cfg.ExperimentalSignals {
		return abort(&UnsupportedError{Op: "cross-process signal"})
	}
	return kernel.EnterResult{}
}

// enterFetch services the checksummed-download pseudo-syscall (§3): only
// declared URLs whose content matches the pinned SHA-256 are visible.
func (c *Container) enterFetch(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	url := sc.Path
	dl, ok := c.cfg.Downloads[url]
	if !ok {
		return abort(&UnsupportedError{Op: "undeclared download: " + url})
	}
	sum := sha256.Sum256(dl.Data)
	if hex.EncodeToString(sum[:]) != strings.ToLower(dl.SHA256) {
		return abort(&UnsupportedError{Op: "checksum mismatch: " + url})
	}
	if out, k := sc.Obj.(*[]byte); k && out != nil {
		*out = append([]byte(nil), dl.Data...)
	}
	sc.Ret = int64(len(dl.Data))
	return emulate(c.writeMem(t, sc, 1+int64(len(dl.Data))/4096))
}

// exitOpen identifies the real inode through /proc/<pid>/fd (§5.5) and gives
// a created file a fresh virtual inode and mtime.
func (c *Container) exitOpen(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	existed := c.pendingOpen[t]
	delete(c.pendingOpen, t)
	if sc.Err() != abi.OK {
		return kernel.ExitResult{}
	}
	ino, ferr := c.k.FDInode(t.Proc, int(sc.Ret))
	xr := kernel.ExitResult{PostCost: c.readProc(t, sc)}
	if ferr == abi.OK && !existed {
		c.newFileInode(ino.Ino)
	}
	return xr
}

// exitStat rewrites a stat-family answer (§5.5).
func (c *Container) exitStat(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	st, ok := sc.Obj.(*abi.Stat)
	if sc.Err() != abi.OK || !ok || st == nil {
		return kernel.ExitResult{}
	}
	c.rewriteStat(t, sc, st)
	return kernel.ExitResult{PostCost: c.writeMem(t, sc, 1)}
}

// exitGetdents sorts directory entries by name and virtualizes their inodes
// (§5.5).
func (c *Container) exitGetdents(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	out, ok := sc.Obj.(*[]abi.Dirent)
	if sc.Err() != abi.OK || !ok || out == nil {
		return kernel.ExitResult{}
	}
	if !c.cfg.Off.Has(GetdentsSort) {
		sortDirents(*out)
	}
	if !c.cfg.Off.Has(InodeVirt) {
		for i := range *out {
			(*out)[i].Ino = c.virtIno((*out)[i].Ino)
		}
	}
	return kernel.ExitResult{PostCost: c.writeMem(t, sc, int64(1+len(*out)/16))}
}

func (c *Container) exitRead(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	return c.retryPartial(t, sc, true)
}

// exitWrite retries partial writes and, as an extension (§5.5), lets writes
// advance the file's virtual mtime.
func (c *Container) exitWrite(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	xr := c.retryPartial(t, sc, false)
	if c.cfg.UpdateVirtualMtimes && sc.Err() == abi.OK && !xr.Retry {
		if ino, ferr := c.k.FDInode(t.Proc, int(sc.Arg[0])); ferr == abi.OK && ino.IsRegular() {
			c.nextMtime++
			c.mtimeMap[ino.Ino] = c.nextMtime
			xr.PostCost += c.readProc(t, sc)
		}
	}
	return xr
}

// exitFork reports the child's virtual pid, or a thread's virtual tid.
func (c *Container) exitFork(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	if sc.Err() != abi.OK {
		return kernel.ExitResult{}
	}
	if sc.Num == abi.SysClone && sc.Arg[0]&abi.CloneThread != 0 {
		sc.Ret = int64(1000 + c.sched.VTID(lastThread(t.Proc)))
		return kernel.ExitResult{}
	}
	c.virtPidRet(sc)
	return kernel.ExitResult{}
}

func (c *Container) exitGetpid(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	c.virtPidRet(sc)
	return kernel.ExitResult{}
}

func (c *Container) exitGetppid(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	if !c.virtPidRet(sc) {
		sc.Ret = 0 // parent is outside the namespace
	}
	return kernel.ExitResult{}
}

// exitGettid reports the scheduler-virtual thread id.
func (c *Container) exitGettid(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	sc.Ret = int64(1000 + c.sched.VTID(t))
	return kernel.ExitResult{}
}

// exitWait4 reports the reaped child's virtual pid and zeroes its rusage,
// which carries host timing.
func (c *Container) exitWait4(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	if sc.Err() != abi.OK || sc.Ret <= 0 {
		return kernel.ExitResult{}
	}
	c.virtPidRet(sc)
	wr, ok := sc.Obj.(*kernel.WaitResult)
	if !ok || wr == nil {
		return kernel.ExitResult{}
	}
	if v, ok := c.vpid[wr.PID]; ok {
		wr.PID = v
	}
	wr.Usage = abi.Rusage{}
	return kernel.ExitResult{PostCost: c.writeMem(t, sc, 1)}
}

// virtPidRet rewrites the host pid in sc.Ret to its virtual pid (§5.1) and
// reports whether the pid is inside the namespace.
func (c *Container) virtPidRet(sc *abi.Syscall) bool {
	v, ok := c.vpid[int(sc.Ret)]
	if ok {
		sc.Ret = int64(v)
	}
	return ok
}

// rewriteStat applies the §5.5 metadata virtualization: virtual inodes,
// zeroed atime/ctime, creation-ordered mtimes, canonical device numbers and
// machine-independent directory sizes (§7.3).
func (c *Container) rewriteStat(t *kernel.Thread, sc *abi.Syscall, st *abi.Stat) {
	p := t.Proc
	realIno := st.Ino
	if !c.cfg.Off.Has(InodeVirt) {
		st.Ino = c.virtIno(realIno)
		st.Dev = 1
	}
	st.Atime = abi.Timespec{}
	st.Ctime = abi.Timespec{}
	st.Mtime = abi.Timespec{Sec: c.virtMtime(realIno)}
	st.Blksize = 512
	if st.IsDir() && !c.cfg.Off.Has(DirSizes) {
		// The host's directory size formula varies across machines; report
		// a pure function of the entry count instead.
		var entries int
		if sc.Num == abi.SysFstat {
			if n, err := c.k.FDInode(p, int(sc.Arg[0])); err == abi.OK {
				entries = n.NumEntries()
			}
		} else if n, err := c.k.ResolveInode(p, sc.Path, sc.Num == abi.SysStat); err == abi.OK {
			entries = n.NumEntries()
		}
		// Counted in tracer_proc_reads on both paths, but its cost is
		// discarded: charging it would move Table 2 and virtual time.
		c.sess.ReadProc(p.Weight)
		st.Size = virtDirSize(entries)
	}
	st.Blocks = (st.Size + 511) / 512
}

// retryPartial implements Fig. 4: a read or write that moved fewer bytes
// than requested is replayed (PC reset, arguments advanced) until the buffer
// is done — or, for a read, until EOF — so the tracee perceives one
// complete call.
func (c *Container) retryPartial(t *kernel.Thread, sc *abi.Syscall, read bool) kernel.ExitResult {
	st := c.rw[t]
	if sc.Err() != abi.OK {
		if st != nil {
			c.finishRetry(t, sc, st)
		}
		return kernel.ExitResult{}
	}
	n := sc.Ret
	eof := read && n == 0
	if st == nil {
		if eof || n == int64(len(sc.Buf)) {
			return kernel.ExitResult{} // complete on the first try
		}
		st = &rwRetry{orig: sc.Buf}
		c.rw[t] = st
	}
	st.total += n
	if eof || st.total == int64(len(st.orig)) {
		c.finishRetry(t, sc, st)
		return kernel.ExitResult{}
	}
	sc.Buf = sc.Buf[n:]
	w := t.Proc.Weight
	if read {
		c.k.Stats.ReadRetries += w
	} else {
		c.k.Stats.WriteRetries += w
	}
	return kernel.ExitResult{Retry: true, PostCost: c.sess.Costs.Stop * w}
}

// finishRetry restores the original buffer and reports the accumulated
// count, so the tracee perceives one complete call.
func (c *Container) finishRetry(t *kernel.Thread, sc *abi.Syscall, st *rwRetry) {
	sc.Buf = st.orig
	if sc.Err() == abi.OK {
		sc.Ret = st.total
	} else if st.total > 0 {
		// Data already transferred wins over a late error.
		sc.Ret = st.total
	}
	delete(c.rw, t)
}

// logicalSeconds advances and returns the process's logical clock (§5.3).
func (c *Container) logicalSeconds(p *kernel.Proc) int64 {
	s := DefaultLogicalEpoch + p.TimeCallCount
	p.TimeCallCount++
	return s
}

// lastThread returns the most recently created thread of p.
func lastThread(p *kernel.Proc) *kernel.Thread { return p.Threads[len(p.Threads)-1] }
