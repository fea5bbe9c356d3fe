package obs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/derive"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, KindSyscallEnter, 2, 3, 4, 5)
	if r.Total() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
	if len(r.MarshalBinary()) != 16 {
		t.Fatal("nil recorder marshal should be header-only")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(int64(i), KindSched, 0, int32(i), 0, 0)
	}
	if r.Total() != 6 || r.Dropped() != 2 {
		t.Fatalf("total/dropped = %d/%d, want 6/2", r.Total(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.LTime != int64(i+2) {
			t.Fatalf("event %d ltime = %d, want %d (oldest-first order)", i, ev.LTime, i+2)
		}
	}
}

func TestRecorderMarshalDeterministic(t *testing.T) {
	run := func() []byte {
		r := NewRecorder(8)
		r.Record(10, KindSyscallEnter, 1, 1000, 0xabc, 0)
		r.Record(20, KindSyscallExit, 1, 1000, 0, 42)
		r.Record(30, KindEntropy, 0, 0, 1<<32|16, int64(DigestBytes([]byte("x"))))
		return r.MarshalBinary()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical event streams marshal differently")
	}
	if len(a) != 16+3*eventBytes {
		t.Fatalf("marshal len = %d, want %d", len(a), 16+3*eventBytes)
	}
}

func TestDigests(t *testing.T) {
	if DigestBytes([]byte("a")) == DigestBytes([]byte("b")) {
		t.Fatal("digest collision on trivial inputs")
	}
	if DigestU64(0, 1, 2) == DigestU64(0, 2, 1) {
		t.Fatal("DigestU64 should be order-sensitive")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{LTime: 5, Kind: KindSyscallEnter, Num: 1, Pid: 1000, Arg: 0xf},
		{LTime: 9, Kind: KindSyscallExit, Num: 1, Pid: 1000, Ret: 3},
		{LTime: 12, Kind: KindEntropy, Ret: 77},
	}
	spans := []Span{{Name: "boot", RealNs: 4000}, {Name: "run", LBegin: 5, LEnd: 20, RealNs: 100}}
	var buf bytes.Buffer
	namer := func(num int32) string {
		if num == 1 {
			return "write"
		}
		return ""
	}
	if err := WriteChromeTrace(&buf, events, spans, namer); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"name":"write","ph":"B","ts":5`, `"ph":"E","ts":9`, `"name":"entropy"`, `"name":"boot","ph":"X"`, `"name":"run","ph":"X","ts":5,"dur":15`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(out, "[") || !strings.HasSuffix(strings.TrimSpace(out), "]") {
		t.Fatal("trace is not a JSON array")
	}
	// Unknown syscall numbers fall back to sys_<n>, nil namer included.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, []Event{{Kind: KindSyscallEnter, Num: 9}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), `"name":"sys_9"`) {
		t.Fatal("nil namer fallback missing")
	}
}

// fillRing records n distinguishable events into a recorder of the given
// limit and returns it with the full event history for reference.
func fillRing(limit, n int) (*Recorder, []Event) {
	r := NewRecorder(limit)
	var all []Event
	for i := 0; i < n; i++ {
		ev := Event{LTime: int64(100 + i), Arg: uint64(i) << 33, Ret: int64(-i), Pid: int32(1000 + i), Num: int32(i % 7), Kind: Kind(1 + i%5)}
		r.Record(ev.LTime, ev.Kind, ev.Num, ev.Pid, ev.Arg, ev.Ret)
		all = append(all, ev)
	}
	return r, all
}

// TestRecorderGrowsToLimit pins the ring's observable behaviour while it
// grows, when it is exactly full and after it wraps: a recorder costs its
// contents, but Events, Dropped and the wire form are those of a ring that
// was allocated at capacity.
func TestRecorderGrowsToLimit(t *testing.T) {
	const limit = 8
	for _, n := range []int{0, 3, 8, 9, 20} {
		r, all := fillRing(limit, n)
		want := all
		if n > limit {
			want = all[n-limit:]
		}
		if r.Total() != int64(n) || r.Dropped() != int64(n-len(want)) {
			t.Fatalf("n=%d: total/dropped = %d/%d, want %d/%d", n, r.Total(), r.Dropped(), n, n-len(want))
		}
		if got := r.Events(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: events = %v, want %v", n, got, want)
		}
		wire := r.MarshalBinary()
		if len(wire) != 16+len(want)*eventBytes {
			t.Fatalf("n=%d: marshal len = %d, want %d", n, len(wire), 16+len(want)*eventBytes)
		}

		// A seal and a restore carry the same stream, and both keep wrapping
		// where the original would.
		seal, _ := r.Seal()
		restored := NewRecorder(limit * 4)
		restored.RestoreState(seal)
		for _, c := range []*Recorder{seal, restored} {
			if !bytes.Equal(c.MarshalBinary(), wire) {
				t.Fatalf("n=%d: seal/restore changed the wire form", n)
			}
		}
		for _, c := range []*Recorder{r, restored} {
			for i := 0; i < limit+1; i++ {
				c.Record(int64(i), KindSched, 0, 0, 0, 0)
			}
		}
		if !bytes.Equal(restored.MarshalBinary(), r.MarshalBinary()) {
			t.Fatalf("n=%d: restored ring diverges from the original after more events", n)
		}
		if !bytes.Equal(seal.MarshalBinary(), wire) {
			t.Fatalf("n=%d: seal aliases the ring it was taken from", n)
		}
	}
}

// refDigest is Digest's definition, folded independently of the ring's
// layout: total and dropped, then one DigestBytes per run of retained events
// that share absolute index / chunkEvents, each over that run's records in
// MarshalBinary.
func refDigest(r *Recorder) uint64 {
	h := derive.NewHasher()
	h.Num(uint64(r.Total()))
	h.Num(uint64(r.Dropped()))
	n := int64(len(r.Events()))
	first := r.Total() - n
	recs := r.MarshalBinary()[16:]
	for i := int64(0); i < n; {
		j := i + 1
		for j < n && (first+j)/chunkEvents == (first+i)/chunkEvents {
			j++
		}
		h.Num(DigestBytes(recs[i*eventBytes : j*eventBytes]))
		i = j
	}
	return h.Sum()
}

// recordN records n distinguishable events starting at stream position from,
// sealing every sealEvery events (0 = never) and checking each seal's digest
// against Digest and the reference fold.
func recordN(t *testing.T, r *Recorder, from, n, sealEvery int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		r.Record(int64(100+i), Kind(1+i%5), int32(i%7), int32(1000+i), uint64(i)<<33, int64(-i))
		if sealEvery > 0 && (i+1)%sealEvery == 0 {
			checkSeal(t, r)
		}
	}
}

// checkSeal seals r and asserts the seal's digest, Digest and the reference
// fold agree, for both the live ring and its seal.
func checkSeal(t *testing.T, r *Recorder) (*Recorder, uint64) {
	t.Helper()
	seal, d := r.Seal()
	if live, ref := r.Digest(), refDigest(r); d != live || d != ref {
		t.Fatalf("total=%d: Seal digest %#x, Digest %#x, reference %#x", r.Total(), d, live, ref)
	}
	if got := seal.Digest(); got != d {
		t.Fatalf("total=%d: sealed ring digests to %#x, Seal returned %#x", r.Total(), got, d)
	}
	return seal, d
}

// TestRecorderDigestFramedByChunk pins Digest against the reference fold
// over every ring shape, with seals taken throughout the fill so memoized
// chunk sums are exercised, and keeps distinct shapes apart.
func TestRecorderDigestFramedByChunk(t *testing.T) {
	shapes := map[string]*Recorder{"nil": nil}
	for _, sh := range []struct {
		name      string
		limit, n  int
		sealEvery int
	}{
		{"empty", 0, 0, 0},
		{"3 events", 0, 3, 1},
		{"exactly one chunk", 0, chunkEvents, 37},
		{"one past a chunk", 0, chunkEvents + 1, 37},
		{"limit 8 full", 8, 8, 3},
		{"limit 8 wrapped once", 8, 9, 3},
		{"limit 8 wrapped twice", 8, 2*8 + 4, 3},
		{"limit 8 across chunks", 8, 3*chunkEvents + 5, 41},
		{"limit 300 full", 300, 300, 29},
		{"limit 300 wrapped once", 300, 301, 29},
		{"limit 300 wrapped twice", 300, 2*300 + 4, 29},
	} {
		r := NewRecorder(sh.limit)
		recordN(t, r, 0, sh.n, sh.sealEvery)
		checkSeal(t, r)
		shapes[sh.name] = r
	}

	// Restored, then continued: a seal mid-chunk, restored into a recorder
	// of another capacity, carries on exactly as the original ring.
	orig := NewRecorder(300)
	recordN(t, orig, 0, 280, 50)
	seal, _ := checkSeal(t, orig)
	restored := NewRecorder(4)
	restored.RestoreState(seal)
	for _, r := range []*Recorder{orig, restored} {
		recordN(t, r, 280, 350, 43)
		checkSeal(t, r)
	}
	if orig.Digest() != restored.Digest() || !bytes.Equal(orig.MarshalBinary(), restored.MarshalBinary()) {
		t.Fatal("restored ring diverges from the original after more events")
	}
	shapes["restored then continued"] = restored

	seen := map[uint64]string{}
	for name, r := range shapes {
		got := r.Digest()
		if ref := refDigest(r); got != ref {
			t.Errorf("%s ring: Digest() = %#x, reference = %#x", name, got, ref)
		}
		if other, dup := seen[got]; dup && !(name == "nil" || other == "nil" || name == "empty" || other == "empty") {
			t.Errorf("%s and %s rings share a digest", name, other)
		}
		seen[got] = name
	}
	if shapes["nil"].Digest() != shapes["empty"].Digest() {
		t.Error("a nil ring and an empty one digest differently")
	}
}

// TestRecorderSealIsolated pins the copy-on-write contract: a seal never
// changes, whatever the live ring or the recorders restored from it record
// afterwards, and the restored rings are as if never interrupted.
func TestRecorderSealIsolated(t *testing.T) {
	const limit, sealed = 300, chunkEvents + 4
	live := NewRecorder(limit)
	recordN(t, live, 0, sealed, 0)
	seal, d := checkSeal(t, live)
	wire := seal.MarshalBinary()
	unchanged := func(when string) {
		t.Helper()
		if !bytes.Equal(seal.MarshalBinary(), wire) || seal.Digest() != d {
			t.Fatalf("seal changed after %s", when)
		}
	}

	recordN(t, live, sealed, 2*chunkEvents-sealed+1, 0) // wraps, then crosses a chunk boundary
	unchanged("the live ring wrapped and crossed a chunk boundary")
	recordN(t, live, 2*chunkEvents+1, 3*chunkEvents, 0) // drops every sealed chunk
	unchanged("the live ring dropped the sealed chunks")

	// Two rings restored from the one seal each record 300 more events of
	// their own; each must match a ring that recorded its stream unbroken.
	for k, from := range []int{1000, 5000} {
		r := NewRecorder(limit)
		r.RestoreState(seal)
		ref := NewRecorder(limit)
		recordN(t, ref, 0, sealed, 0)
		for _, x := range []*Recorder{r, ref} {
			recordN(t, x, from, 300, 0)
		}
		if !bytes.Equal(r.MarshalBinary(), ref.MarshalBinary()) {
			t.Fatalf("restored ring %d diverges from the unbroken one", k)
		}
		unchanged(fmt.Sprintf("restored ring %d recorded 300 events", k))
	}
}

// TestRecorderDigestRecomputes: Digest folds the events themselves, never a
// memoized chunk sum, so corrupting one event of a sealed, memoized chunk is
// caught.
func TestRecorderDigestRecomputes(t *testing.T) {
	r := NewRecorder(0)
	recordN(t, r, 0, 2*chunkEvents+10, 0)
	seal, d := r.Seal()
	if c := seal.chunks[0]; !c.summed || !c.sealed {
		t.Fatalf("full sealed chunk not memoized: summed=%v sealed=%v", c.summed, c.sealed)
	}
	seal.chunks[0].ev[5].Arg ^= 1
	if seal.Digest() == d {
		t.Fatal("Digest read a memoized sum: the corrupted event went unnoticed")
	}
}

// TestRecorderRecyclesChunks: a wrapped ring that no seal holds reuses its
// dropped chunks, so steady-state recording allocates nothing.
func TestRecorderRecyclesChunks(t *testing.T) {
	r := NewRecorder(300)
	recordN(t, r, 0, 4*chunkEvents, 0)
	if allocs := testing.AllocsPerRun(4, func() { recordN(t, r, 0, chunkEvents, 0) }); allocs != 0 {
		t.Fatalf("wrapped ring allocates %.1f times per chunk of events", allocs)
	}
}
