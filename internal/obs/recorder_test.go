package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"
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
		seal := r.CloneState()
		restored := NewRecorder(limit * 4)
		restored.RestoreState(seal)
		for _, c := range []*Recorder{seal, restored} {
			if !bytes.Equal(c.MarshalBinary(), wire) {
				t.Fatalf("n=%d: clone/restore changed the wire form", n)
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
			t.Fatalf("n=%d: seal aliases the ring it was cloned from", n)
		}
	}
}

// TestRecorderDigestMatchesMarshal pins Digest as the in-place form of
// DigestBytes(MarshalBinary()) over every ring shape.
func TestRecorderDigestMatchesMarshal(t *testing.T) {
	const limit = 8
	shapes := map[string]*Recorder{"nil": nil}
	for name, n := range map[string]int{"empty": 0, "partly filled": 3, "exactly full": limit, "wrapped once": limit + 1, "wrapped twice": 2*limit + 4} {
		shapes[name], _ = fillRing(limit, n)
	}
	seen := map[uint64]string{}
	for name, r := range shapes {
		got, want := r.Digest(), DigestBytes(r.MarshalBinary())
		if got != want {
			t.Errorf("%s ring: Digest() = %#x, DigestBytes(MarshalBinary()) = %#x", name, got, want)
		}
		if other, dup := seen[got]; dup && !(name == "nil" || other == "nil") {
			t.Errorf("%s and %s rings share a digest", name, other)
		}
		seen[got] = name
	}
}
