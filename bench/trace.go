package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// harness from outside the program. Parent is the index of the enclosing
// span (-1 for a root) and Op the operation the call served, so the spans of
// one op share an identifier.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's origin
	Parent     int
	Op         int64
}

// tracer keeps spans in memory until the run ends. The traced repetition
// is serial — one client, on the harness goroutine — so the innermost open
// span is the parent of the next. A nil *tracer is the untraced run: every
// method is a no-op around the call, so one code path drives both the
// end-to-end and the traced repetitions.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 for none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.open, Op: op})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes the span and returns its duration in ns.
func (t *tracer) end(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = t.now()
	t.open = s.Parent
	return s.End - s.Start
}

// do times fn as a span and returns its duration in ns
// (measured even when untraced, so callers can use it for latency).
func (t *tracer) do(name string, op int64, fn func()) int64 {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start).Nanoseconds()
	}
	id := t.begin(name, op)
	fn()
	return t.end(id)
}

// sub records child spans of a finished span from durations the program
// itself reports in public result fields (core.Result.Spans,
// core.Template.PrepareNs): laid end to end from the parent's start.
func (t *tracer) sub(parent int, parts ...subSpan) {
	if t == nil || parent < 0 {
		return
	}
	p := t.spans[parent]
	cursor := p.Start
	for _, part := range parts {
		if part.ns <= 0 {
			continue
		}
		end := cursor + part.ns
		if end > p.End {
			end = p.End
		}
		t.spans = append(t.spans, span{Name: part.name, Start: cursor, End: end,
			Parent: parent, Op: p.Op})
		cursor = end
	}
}

type subSpan struct {
	name string
	ns   int64
}

// last returns the index of the most recently opened span.
func (t *tracer) last() int {
	if t == nil {
		return -1
	}
	return len(t.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerOf maps a span name to the module that does its work: the prefix
// before the first dot. "probe.*" spans are extra harness-driven calls made
// only to time one function; they are not part of any op.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// attribution folds self times by layer, skipping probe subtrees. It returns per-layer ns, their total, and the time the
// probes took, which is no part of any op.
func (t *tracer) attribution() (byLayer map[string]int64, total, probes int64) {
	byLayer = map[string]int64{}
	self := t.selfTimes()
	probe := make([]bool, len(t.spans))
	for i, s := range t.spans {
		inProbe := s.Parent >= 0 && probe[s.Parent]
		probe[i] = inProbe || layerOf(s.Name) == "probe"
		switch {
		case probe[i] && !inProbe:
			probes += s.End - s.Start
		case !probe[i]:
			byLayer[layerOf(s.Name)] += self[i]
			total += self[i]
		}
	}
	return byLayer, total, probes
}

// writeChrome flushes the spans as a Chrome trace_event JSON array of "X"
// complete events, the shape obs.WriteChromeTrace emits for lifecycle spans
// (ts/dur in microseconds; load in chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[\n")
	for i, s := range t.spans {
		sep := ",\n"
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, `%s{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"op":%d,"parent":%d}}`,
			sep, s.Name, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Op, s.Parent)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
