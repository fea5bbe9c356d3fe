package obs

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/derive"
)

// Kind tags a flight-recorder event.
type Kind uint8

const (
	// KindSyscallEnter is recorded when a traced or emulated syscall is
	// admitted: Num is the syscall number, Arg the pre-rewrite args digest.
	KindSyscallEnter Kind = iota + 1
	// KindSyscallExit pairs the enter: Ret is the determinized result.
	KindSyscallExit
	// KindBuffered is an in-tracee buffered call serviced without a stop.
	KindBuffered
	// KindSched is a scheduler decision: Pid is the chosen vtid, Arg the
	// queue class it was picked from (see sched).
	KindSched
	// KindEntropy is a deterministic PRNG draw: Arg packs the draw index
	// and length, Ret carries an FNV digest of the produced bytes.
	KindEntropy
	// KindInstr is a trapped CPU instruction (RDTSC/CPUID): Num is the
	// trap code, Ret the determinized value handed to the guest.
	KindInstr
	// KindCOWBreak is a copy-on-write data break in a forked filesystem:
	// Arg is the copied byte count. Mechanism-level: occurs only on
	// template forks, so the diagnoser skips it during alignment.
	KindCOWBreak
	// KindSpan marks span begin/end instants emitted by the container
	// lifecycle; mechanism-level like KindCOWBreak.
	KindSpan
	// KindCheckpoint marks a crash-consistency checkpoint sealed at a
	// quiescent traced stop: Arg is the checkpoint ordinal, Ret the kernel
	// action count at the seal. Recorded identically by an uninterrupted run
	// and a crash+resume of the same run (the seal happens before the crash
	// in both), but mechanism-level like KindCOWBreak: the diagnoser skips
	// it when aligning a checkpointing run against a non-checkpointing one.
	KindCheckpoint
	// KindFarmAssign marks the farm coordinator assigning a job to a worker:
	// Pid is the worker ordinal, Arg the job ID, Ret the attempt. Farm kinds
	// are recorded on the coordinator's own ring and are mechanism-level —
	// they describe WHERE a build ran, which by the farm's purity contract
	// must not affect any output byte, so the diagnoser never compares them.
	KindFarmAssign
	// KindFarmSteal marks a job reassigned away from a dead worker: Pid is
	// the new worker ordinal, Arg the job ID, Ret the dead worker's ordinal.
	KindFarmSteal
	// KindFarmRecover marks a stolen job completed from a checkpoint seal:
	// Pid is the recovering worker ordinal, Arg the job ID, Ret the seal
	// ordinal restored from (0 = cold replay).
	KindFarmRecover
	// KindWsFork marks a thread workspace fork (ISSUE 7): Pid is the
	// forking thread's vTID. Mechanism-level like KindCOWBreak — workspaces
	// exist only when the workspace mode is on, and never change
	// guest-visible bytes.
	KindWsFork
	// KindWsMerge marks a workspace merge at a sync point: Pid is the
	// syncing thread's vTID, Arg the deterministic merge digest, Ret the
	// number of workspaces merged.
	KindWsMerge
	// KindWsConflict marks a deterministic workspace merge conflict; the
	// container aborts reproducibly right after recording it.
	KindWsConflict
	// KindDeriveHit marks a derivation-store hit (ISSUE 8): derived state
	// was reused instead of rebuilt. Arg is the derivation key hash, Ret
	// the granularity (0 = template/snapshot, 1 = phase seal, 2 = compile
	// unit). Observability-only — reuse never changes guest-visible bytes.
	KindDeriveHit
	// KindDeriveMiss marks a derivation-store miss at the same granularity
	// encoding: the state had to be built (or a unit re-executed).
	KindDeriveMiss
	// KindSeek marks a time-travel debugger seek (ISSUE 9): Arg is the
	// requested logical instant, Ret the checkpoint ordinal restored from
	// (-1 = cold replay from boot), Num the number of actions replayed
	// forward from the seal. Recorded on the debug session's own ring, never
	// on a guest run's — mechanism-level like the farm kinds.
	KindSeek
	// KindBisectProbe marks one probe of the auto-bisect binary search: Arg
	// is the probed seal ordinal, Ret 1 if the two runs' seals already
	// diverged at that ordinal and 0 if they still agreed.
	KindBisectProbe
	// KindAttest marks one job's quorum admission on the coordinator ring
	// (ISSUE 10): Pid is the primary builder's ordinal, Arg the job, Ret the
	// dissenting-builder count. Mechanism-level like the farm kinds.
	KindAttest
	// KindQuarantine marks a builder named as Byzantine and quarantined:
	// Pid is the quarantined ordinal, Arg the job whose admission named it.
	KindQuarantine
	// KindEpochSeal marks a transparency-log epoch sealed and replicated:
	// Arg is the epoch index, Ret the admitted-record count.
	KindEpochSeal
)

// String names the kind for human-facing diagnoser output.
func (k Kind) String() string {
	switch k {
	case KindSyscallEnter:
		return "syscall-enter"
	case KindSyscallExit:
		return "syscall-exit"
	case KindBuffered:
		return "buffered-call"
	case KindSched:
		return "sched"
	case KindEntropy:
		return "entropy"
	case KindInstr:
		return "instr"
	case KindCOWBreak:
		return "cow-break"
	case KindSpan:
		return "span"
	case KindCheckpoint:
		return "checkpoint"
	case KindFarmAssign:
		return "farm-assign"
	case KindFarmSteal:
		return "farm-steal"
	case KindFarmRecover:
		return "farm-recover"
	case KindWsFork:
		return "ws-fork"
	case KindWsMerge:
		return "ws-merge"
	case KindWsConflict:
		return "ws-conflict"
	case KindDeriveHit:
		return "derive-hit"
	case KindDeriveMiss:
		return "derive-miss"
	case KindSeek:
		return "ttd-seek"
	case KindBisectProbe:
		return "ttd-bisect-probe"
	case KindAttest:
		return "attest-admit"
	case KindQuarantine:
		return "attest-quarantine"
	case KindEpochSeal:
		return "attest-epoch-seal"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one flight-recorder record. Every field is derived from logical
// state only: LTime is the logical clock (jitter-free virtual time), Pid a
// virtual pid/tid, and Arg/Ret determinized values or digests — never host
// pids, host inodes, wall-clock stamps or addresses.
type Event struct {
	LTime int64
	Arg   uint64
	Ret   int64
	Pid   int32
	Num   int32
	Kind  Kind
}

// eventBytes is the canonical wire size of one event (MarshalBinary).
const eventBytes = 8 + 8 + 8 + 4 + 4 + 1

// DefaultRingEvents is the default flight-recorder capacity. Big enough to
// hold a modeled package build's full event stream; on overflow the ring
// keeps the newest events and counts the drops.
const DefaultRingEvents = 8192

// Recorder is a bounded ring of events. It is nil-safe: every method on a
// nil *Recorder is a no-op, which is how DisableObservability is spelled at
// the recording sites. The recorder is written only under the kernel's
// lockstep (exactly one guest runs at a time), so it needs no locking of its
// own.
//
// The ring costs its contents, not its capacity: it grows by append up to
// limit and only then wraps, so booting, sealing and restoring a recorder
// that holds 39 events moves 39 events. next is the slot the next event
// lands in — len(ring) while growing, the oldest event once full — so
// ring[next:] followed by ring[:next] is always record order.
type Recorder struct {
	ring    []Event
	limit   int
	next    int
	total   int64
	dropped int64
}

// NewRecorder returns a recorder with the given ring capacity
// (DefaultRingEvents if n <= 0).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRingEvents
	}
	return &Recorder{limit: n}
}

// Record appends one event.
func (r *Recorder) Record(ltime int64, kind Kind, num int32, pid int32, arg uint64, ret int64) {
	if r == nil {
		return
	}
	ev := Event{LTime: ltime, Arg: arg, Ret: ret, Pid: pid, Num: num, Kind: kind}
	if n := len(r.ring); n < r.limit {
		if n == cap(r.ring) {
			// Double, and stop at the limit: append's own 1.25x steps would
			// have allocated four times a full ring on the way to filling it.
			r.ring = slices.Grow(r.ring, min(max(n, 16), r.limit-n))
		}
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next] = ev
		r.dropped++
	}
	r.next = (r.next + 1) % r.limit
	r.total++
}

// Total is the number of events ever recorded (including dropped ones).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped is the number of events overwritten by ring wraparound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the retained events in record order (oldest first).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return slices.Concat(r.ring[r.next:], r.ring[:r.next])
}

// CloneState returns an immutable deep copy of the recorder's state (ring
// contents, write cursor, total/dropped counters) for sealing into a
// checkpoint. Nil-safe: a nil recorder (DisableObservability) seals as nil.
func (r *Recorder) CloneState() *Recorder {
	if r == nil {
		return nil
	}
	c := *r
	c.ring = slices.Clone(r.ring)
	return &c
}

// RestoreState overwrites the recorder with a seal taken by CloneState, so a
// resumed run's ring continues byte-for-byte where the sealed prefix ended.
// The seal is copied, not aliased, and can be restored from repeatedly.
func (r *Recorder) RestoreState(seal *Recorder) {
	if r == nil || seal == nil {
		return
	}
	*r = *seal
	r.ring = slices.Clone(seal.ring)
}

// MarshalBinary renders the retained events as canonical little-endian
// records prefixed by a header (total, dropped). Two recorders that saw the
// same event stream marshal byte-identically — the property the ring
// determinism test pins.
func (r *Recorder) MarshalBinary() []byte {
	n := 0
	if r != nil {
		n = len(r.ring)
	}
	out := make([]byte, 0, 16+n*eventBytes)
	r.wire(func(p []byte) { out = append(out, p...) })
	return out
}

// Digest is DigestBytes(MarshalBinary()) folded in place: the same bytes in
// the same order into the same FNV-1a state, with neither the event copy nor
// the wire buffer materialised. Checkpoints validate their sealed ring with
// it on every seal and every resume.
func (r *Recorder) Digest() uint64 {
	h := derive.NewHasher()
	r.wire(h.Bytes)
	return h.Sum()
}

// wire feeds the canonical encoding to emit piece by piece: the 16-byte
// header first, then one eventBytes record per retained event, oldest first.
// emit must not keep the slice.
func (r *Recorder) wire(emit func([]byte)) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(r.Total()))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(r.Dropped()))
	emit(hdr[:])
	if r == nil {
		return
	}
	var rec [eventBytes]byte
	for _, evs := range [2][]Event{r.ring[r.next:], r.ring[:r.next]} {
		for _, ev := range evs {
			binary.LittleEndian.PutUint64(rec[0:], uint64(ev.LTime))
			binary.LittleEndian.PutUint64(rec[8:], ev.Arg)
			binary.LittleEndian.PutUint64(rec[16:], uint64(ev.Ret))
			binary.LittleEndian.PutUint32(rec[24:], uint32(ev.Pid))
			binary.LittleEndian.PutUint32(rec[28:], uint32(ev.Num))
			rec[32] = byte(ev.Kind)
			emit(rec[:])
		}
	}
}

// Span is one timed phase of a container's lifecycle (prepare, boot, fork,
// run, flush). RealNs is wall-clock duration measured OUTSIDE the container
// (host-side setup cost, like Result.SetupNs) and never feeds back into
// guest state; LBegin/LEnd bracket the span on the logical clock where the
// phase executes guest work (zero for host-only phases).
type Span struct {
	Name   string
	RealNs int64
	LBegin int64
	LEnd   int64
}

// DigestBytes folds a byte slice into a 64-bit FNV-1a digest — how entropy
// draws and syscall payloads enter events without copying guest data. It is
// derive.DigestBytes re-exported: event digests share the one derivation-key
// mixer (ISSUE 8) so observability and cache keys can never disagree on what
// a content hash is.
func DigestBytes(p []byte) uint64 { return derive.DigestBytes(p) }

// DigestU64 folds additional words into a running digest (seed with
// DigestBytes(nil) for an empty start).
func DigestU64(h uint64, vs ...uint64) uint64 { return derive.DigestU64(h, vs...) }
