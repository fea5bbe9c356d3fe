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
	// Arg is the copied byte count. Mechanism-level (every boot forks a
	// snapshot, so it marks the guest's first write to a file from its
	// image): the diagnoser skips it during alignment.
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
	// KindDeriveHit and KindDeriveMiss (derivation-store hit and miss) are
	// reserved: nothing records them, but they hold their slots so every
	// later kind keeps its number, and with it every ring digest.
	KindDeriveHit
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

// chunkEvents is the ring's unit of storage and of sharing: chunk k holds the
// events with absolute indices [k*chunkEvents, (k+1)*chunkEvents).
const chunkEvents = 256

// chunk is one fixed span of the ring. Only a recorder's tail chunk is ever
// written, and only while sealed is false: a full chunk never changes again,
// and a chunk a seal holds is immutable — the recorder that wants to write it
// copies it first. sum memoizes the digest of a full chunk's wire records;
// Seal stores it only on chunks no seal holds yet, so a chunk that several
// resumed recorders share is read, never written.
type chunk struct {
	ev     []Event
	sum    uint64
	summed bool
	sealed bool
}

// block is a chunk allocated at full size together with its storage.
type block struct {
	chunk
	buf [chunkEvents]Event
}

// newChunk allocates an empty chunk with room for chunkEvents events.
func newChunk() *chunk {
	b := new(block)
	b.ev = b.buf[:0]
	return &b.chunk
}

// Recorder is a bounded ring of events. It is nil-safe: every method on a
// nil *Recorder is a no-op, which is how the observability ablation is spelled at
// the recording sites. The recorder is written only under the kernel's
// lockstep (exactly one guest runs at a time), so it needs no locking of its
// own.
//
// The ring is a list of chunks, oldest first; the retained events start at
// chunks[0].ev[head]. It costs its contents, not its capacity: the first
// chunk grows by append, and a chunk is dropped whole once wraparound has
// overwritten all of it (it is then reused as the next tail unless a seal
// holds it). Seal and RestoreState copy only the chunk pointers, so a
// checkpoint's ring costs the events recorded since the last one.
type Recorder struct {
	chunks  []*chunk
	head    int
	limit   int
	total   int64
	dropped int64
	w       *chunk // the tail while it is writable; nil once sealed
	spare   *chunk // a dropped chunk no seal holds, the next tail
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
	t := r.w
	if t == nil || len(t.ev) == cap(t.ev) {
		t = r.tail()
	}
	t.ev = append(t.ev, Event{LTime: ltime, Arg: arg, Ret: ret, Pid: pid, Num: num, Kind: kind})
	r.total++
	if r.total-r.dropped > int64(r.limit) {
		r.dropped++
		if r.head++; r.head == chunkEvents {
			r.dropChunk()
		}
	}
}

// dropChunk retires the oldest chunk once wraparound has overwritten all of
// it.
func (r *Recorder) dropChunk() {
	if old := r.chunks[0]; !old.sealed {
		r.spare = old
	}
	r.chunks = slices.Delete(r.chunks, 0, 1)
	r.head = 0
}

// tail makes the chunk the next event lands in writable, with room for it,
// and caches it in w: a full tail starts a new chunk, a sealed one is copied
// first, and a ring's first chunk, which alone starts small, grows.
func (r *Recorder) tail() *chunk {
	n := len(r.chunks)
	var t *chunk
	if n > 0 {
		t = r.chunks[n-1]
	}
	switch {
	case n == 0:
		// The chunk list is sized once, for a full ring; a chunk's
		// events cost their contents.
		t = &chunk{}
		r.chunks = append(make([]*chunk, 0, r.limit/chunkEvents+2), t)
	case len(t.ev) == chunkEvents:
		t = r.spare // never sealed, so never summed either
		if t == nil {
			t = newChunk()
		}
		r.spare = nil
		t.ev = t.ev[:0]
		r.chunks = append(r.chunks, t)
	case t.sealed:
		c := newChunk()
		c.ev = append(c.ev, t.ev...)
		r.chunks[n-1], t = c, c
	}
	if l := len(t.ev); l == cap(t.ev) {
		// Double, and stop at the chunk size: a full slice is a full chunk.
		t.ev = slices.Grow(t.ev, min(max(l, 16), chunkEvents-l))
		t.ev = t.ev[:l:min(cap(t.ev), chunkEvents)]
	}
	r.w = t
	return t
}

// retained is chunk i's retained events: the whole chunk, except that
// wraparound has already overwritten the oldest chunk's first head events.
func (r *Recorder) retained(i int) []Event {
	if i == 0 {
		return r.chunks[0].ev[r.head:]
	}
	return r.chunks[i].ev
}

// segments calls fn with each chunk's retained events, oldest first.
func (r *Recorder) segments(fn func([]Event)) {
	if r == nil {
		return
	}
	for i := range r.chunks {
		fn(r.retained(i))
	}
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
	n := r.total - r.dropped
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	r.segments(func(evs []Event) { out = append(out, evs...) })
	return out
}

// Seal returns an immutable copy of the recorder's state for a checkpoint,
// and its Digest. The copy shares every chunk with the live ring: sealing
// copies the chunk pointers and marks the chunks held, and the live ring
// copies its tail before writing to it again. A full chunk is digested once,
// by the first seal that holds it, and its sum reused after that; only the
// tail and a wrapped ring's partly dropped oldest chunk are digested anew on
// every seal. Nil-safe:
// a nil recorder (observability off) seals as nil with the digest of an
// empty ring.
func (r *Recorder) Seal() (*Recorder, uint64) {
	if r == nil {
		return nil, r.Digest()
	}
	h := derive.NewHasher()
	r.header(h)
	for i, c := range r.chunks {
		evs := r.retained(i)
		whole := len(evs) == chunkEvents
		sum := c.sum
		if !whole || !c.summed {
			sum = segmentSum(evs)
		}
		if !c.sealed {
			c.sum, c.summed, c.sealed = sum, whole, true
		}
		h.Num(sum)
	}
	r.w = nil
	return &Recorder{chunks: slices.Clone(r.chunks), head: r.head, limit: r.limit,
		total: r.total, dropped: r.dropped}, h.Sum()
}

// RestoreState overwrites the recorder with a seal taken by Seal, so a
// resumed run's ring continues byte-for-byte where the sealed prefix ended.
// The recorder shares the seal's chunks and copies the tail before writing
// to it, so the seal is never changed and can be restored from repeatedly,
// concurrently too.
func (r *Recorder) RestoreState(seal *Recorder) {
	if r == nil || seal == nil {
		return
	}
	*r = Recorder{chunks: slices.Clone(seal.chunks), head: seal.head, limit: seal.limit,
		total: seal.total, dropped: seal.dropped}
}

// MarshalBinary renders the retained events as canonical little-endian
// records prefixed by a header (total, dropped). Two recorders that saw the
// same event stream marshal byte-identically — the property the ring
// determinism test pins.
func (r *Recorder) MarshalBinary() []byte {
	out := make([]byte, 16, 16+int(r.Total()-r.Dropped())*eventBytes)
	binary.LittleEndian.PutUint64(out[0:], uint64(r.Total()))
	binary.LittleEndian.PutUint64(out[8:], uint64(r.Dropped()))
	var rec [eventBytes]byte
	r.segments(func(evs []Event) {
		for i := range evs {
			evs[i].wire(&rec)
			out = append(out, rec[:]...)
		}
	})
	return out
}

// Digest is the ring's content digest, framed by chunk: total and dropped,
// then for each chunk's retained events (absolute index / chunkEvents) the
// DigestBytes of their wire records. It is recomputed from the events on
// every call and never reads a memoized sum, so Checkpoint.Valid checks
// every sealed byte; Seal returns the same value at the cost of the chunks
// filled since the last seal.
func (r *Recorder) Digest() uint64 {
	h := derive.NewHasher()
	r.header(h)
	r.segments(func(evs []Event) { h.Num(segmentSum(evs)) })
	return h.Sum()
}

// header folds what every ring digest starts with: total, then dropped.
func (r *Recorder) header(h *derive.Hasher) {
	h.Num(uint64(r.Total()))
	h.Num(uint64(r.Dropped()))
}

// segmentSum is DigestBytes of one segment's wire records.
func segmentSum(evs []Event) uint64 {
	h := derive.NewHasher()
	var rec [eventBytes]byte
	for i := range evs {
		evs[i].wire(&rec)
		h.Bytes(rec[:])
	}
	return h.Sum()
}

// wire writes the event's canonical eventBytes record into rec.
func (ev *Event) wire(rec *[eventBytes]byte) {
	binary.LittleEndian.PutUint64(rec[0:], uint64(ev.LTime))
	binary.LittleEndian.PutUint64(rec[8:], ev.Arg)
	binary.LittleEndian.PutUint64(rec[16:], uint64(ev.Ret))
	binary.LittleEndian.PutUint32(rec[24:], uint32(ev.Pid))
	binary.LittleEndian.PutUint32(rec[28:], uint32(ev.Num))
	rec[32] = byte(ev.Kind)
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
