// Package rr implements the record-and-replay baseline of §7.1.3, modelled
// on Mozilla rr 5.2.0: a ptrace supervisor that records every
// nondeterministic input (system call results, read data, rdtsc values)
// into an opaque trace so the execution can be replayed later.
//
// Like the real tool it serializes tracee execution, pays more per system
// call than DetTrace does (it must persist data, not just rewrite it), and
// crashes on the ioctl requests it does not model — the known bug that
// killed 46 of the paper's 81 sample builds.
//
// The comparison the paper draws: rr's trace makes one recorded execution
// repeatable, but it does not make the *build* reproducible — the recording
// is an opaque binary blob, not an auditable source-to-artifact function.
package rr

import (
	"errors"
	"fmt"

	"repro/internal/abi"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/sched"
	"repro/internal/tracer"
)

// ErrUnsupportedIoctl is rr's known crash (§7.1.3).
var ErrUnsupportedIoctl = errors.New("rr: unhandled ioctl request (known bug)")

// Event is one recorded nondeterministic input.
type Event struct {
	Kind string // "syscall", "rdtsc", "rdrand"
	Nr   abi.Sysno
	Ret  int64
	Data []byte // read results, random bytes, dirent blobs
}

// Trace is the recording: an ordered event log plus its storage footprint.
type Trace struct {
	Events []Event
	Bytes  int64
}

func (tr *Trace) add(e Event) {
	tr.Events = append(tr.Events, e)
	tr.Bytes += int64(len(e.Data)) + 24
}

// Recorder is the recording supervisor; it implements kernel.Policy.
type Recorder struct {
	sched *sched.Scheduler
	sess  *tracer.Session
	Trace *Trace
	k     *kernel.Kernel
}

// NewRecorder returns a recording policy.
func NewRecorder(singleStop bool) *Recorder {
	r := &Recorder{
		sched: sched.New(),
		sess:  tracer.NewSession(new(tracer.Counters), singleStop),
		Trace: &Trace{},
	}
	// Recording costs more than rewriting: every handler also persists the
	// event. Calibrated so rr's average build overhead lands near the
	// paper's 5.8× (vs DetTrace's 3.49×).
	r.sess.Costs.HandlerLight = r.sess.Costs.HandlerLight * 3 / 2
	r.sess.Costs.HandlerMedium = r.sess.Costs.HandlerMedium * 5 / 4
	r.sess.Costs.HandlerHeavy = r.sess.Costs.HandlerHeavy * 9 / 8
	return r
}

// Attach lets the harness hand the kernel over after construction.
func (r *Recorder) Attach(k *kernel.Kernel) { r.k = k }

var _ kernel.Policy = (*Recorder)(nil)

// Name implements kernel.Policy.
func (r *Recorder) Name() string { return "rr-record" }

// ThreadsSerialized: rr runs tracees one at a time.
func (r *Recorder) ThreadsSerialized() bool { return true }

// PickNext uses the same reproducible queue discipline as DetTrace; rr's
// scheduler is likewise deterministic-by-construction during replay.
func (r *Recorder) PickNext(k *kernel.Kernel, pending []*kernel.Thread) *kernel.Thread {
	t := r.sched.Pick(k, pending)
	if r.sched.Err != nil {
		k.Abort(r.sched.Err)
		r.sched.Err = nil
		return nil
	}
	return t
}

// SyscallEnter intercepts everything; ioctl is the crash.
func (r *Recorder) SyscallEnter(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	if sc.Num == abi.SysIoctl {
		return kernel.EnterResult{Disposition: kernel.DispAbort, AbortErr: ErrUnsupportedIoctl}
	}
	w := t.Proc.Weight
	er := kernel.EnterResult{Disposition: kernel.DispExecute, Serialize: true}
	if sc.Attempts == 0 {
		er.LocalCost = r.sess.InterceptCost(w)
		er.PostCost = r.sess.HandlerCost(sc.Num, w)
	} else {
		er.LocalCost = r.sess.Costs.Stop * w
	}
	return er
}

// SyscallExit records the nondeterministic result.
func (r *Recorder) SyscallExit(t *kernel.Thread, sc *abi.Syscall) kernel.ExitResult {
	var xr kernel.ExitResult
	switch sc.Num {
	case abi.SysRead, abi.SysGetrandom, abi.SysRecvfrom:
		var data []byte
		if sc.Ret > 0 && sc.Buf != nil {
			n := sc.Ret
			if n > int64(len(sc.Buf)) {
				n = int64(len(sc.Buf))
			}
			data = append([]byte(nil), sc.Buf[:n]...)
		}
		r.Trace.add(Event{Kind: "syscall", Nr: sc.Num, Ret: sc.Ret, Data: data})
		xr.PostCost += r.sess.WriteMem(t.Proc.Weight, 1)
	case abi.SysTime, abi.SysGettimeofday, abi.SysClockGettime, abi.SysGetdents,
		abi.SysStat, abi.SysLstat, abi.SysFstat, abi.SysGetpid, abi.SysWait4,
		abi.SysFork, abi.SysClone, abi.SysUname, abi.SysSysinfo:
		r.Trace.add(Event{Kind: "syscall", Nr: sc.Num, Ret: sc.Ret, Data: encodeObj(sc)})
	default:
		r.Trace.add(Event{Kind: "syscall", Nr: sc.Num, Ret: sc.Ret})
	}
	r.sched.ReleaseToken(t)
	return xr
}

// WouldBlock parks blocking calls like DetTrace does.
func (r *Recorder) WouldBlock(t *kernel.Thread, sc *abi.Syscall) bool {
	r.sched.ReleaseToken(t)
	return true
}

// Instr records trapped instruction results but passes hardware values
// through — rr preserves behaviour, it does not normalize it.
func (r *Recorder) Instr(t *kernel.Thread, req cpu.Request) (cpu.Result, bool, int64) {
	switch req.Instr {
	case cpu.RDTSC, cpu.RDTSCP:
		res := r.k.HW.Execute(req)
		r.Trace.add(Event{Kind: "rdtsc", Ret: int64(res.Value)})
		return res, true, (r.sess.Costs.Stop + r.sess.Costs.HandlerLight) * t.Proc.Weight
	default:
		return cpu.Result{}, false, 0
	}
}

// OnSpawn / OnExit / OnExec mirror the scheduler bookkeeping.
func (r *Recorder) OnSpawn(parent, child *kernel.Thread) {
	r.sched.Register(child)
	r.sched.ReleaseToken(parent)
}

// OnExit implements kernel.Policy.
func (r *Recorder) OnExit(t *kernel.Thread) { r.sched.Unregister(t) }

// OnExec arms rdtsc trapping like rr does.
func (r *Recorder) OnExec(t *kernel.Thread) {
	t.Proc.Trap.TSCTrap = true
}

func encodeObj(sc *abi.Syscall) []byte {
	if sc.Obj == nil {
		return nil
	}
	return []byte(fmt.Sprintf("%+v", sc.Obj))
}

// Replayer feeds a recorded trace back: every recorded syscall is emulated
// with its recorded result instead of executing. It demonstrates that the
// recording suffices to reproduce an execution's inputs — rr's core
// guarantee.
type Replayer struct {
	Recorder
	cursor int
	// Divergence is set when the replayed execution issues a different
	// syscall sequence than the recording.
	Divergence error
}

// NewReplayer wraps a trace for replay.
func NewReplayer(tr *Trace) *Replayer {
	rp := &Replayer{}
	rp.sched = sched.New()
	rp.sess = tracer.NewSession(new(tracer.Counters), true)
	rp.Trace = tr
	return rp
}

// Name implements kernel.Policy.
func (rp *Replayer) Name() string { return "rr-replay" }

// SyscallEnter replays the recorded result for every replayable call.
func (rp *Replayer) SyscallEnter(t *kernel.Thread, sc *abi.Syscall) kernel.EnterResult {
	// Calls with purely local effects still execute (the replay keeps its
	// own filesystem warm); nondeterministic inputs come from the trace.
	switch sc.Num {
	case abi.SysTime, abi.SysGettimeofday, abi.SysClockGettime,
		abi.SysGetrandom, abi.SysGetpid:
		ev, ok := rp.next(sc.Num)
		if !ok {
			return kernel.EnterResult{Disposition: kernel.DispAbort, AbortErr: rp.Divergence}
		}
		sc.Ret = ev.Ret
		if sc.Num == abi.SysGetrandom && sc.Buf != nil {
			copy(sc.Buf, ev.Data)
		}
		return kernel.EnterResult{Disposition: kernel.DispEmulate, Serialize: true}
	}
	return rp.Recorder.SyscallEnter(t, sc)
}

// next scans forward for the next recorded event of the given syscall.
func (rp *Replayer) next(nr abi.Sysno) (Event, bool) {
	for rp.cursor < len(rp.Trace.Events) {
		ev := rp.Trace.Events[rp.cursor]
		rp.cursor++
		if ev.Kind == "syscall" && ev.Nr == nr {
			return ev, true
		}
	}
	rp.Divergence = fmt.Errorf("rr: replay diverged: no recorded %v left", nr)
	return Event{}, false
}
