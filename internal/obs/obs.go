// Package obs is the deterministic observability layer: the metrics
// namespace a run publishes and a farm rolls up (the kernel's per-syscall
// table, the tracer's stop/buffer accounting, the build farm's template and
// LRU tallies), plus a per-container flight recorder (recorder.go), a Chrome
// trace exporter (trace.go) and a first-divergence diagnoser (diagnose.go).
// A run does not count into a registry: its counts are plain fields of the
// kernel's sealed state, and the container publishes them here once, when
// the run ends. Neither a farm cluster nor a build farm counts into a
// registry either: a cluster's counts are the fields of farm.Stats, and a
// build farm's are plain fields of buildsim.Options (its SetupStats and
// FaultStats among them), which Options.Obs publishes here when it is read.
//
// The design constraint that shapes everything here is the paper's §3 purity
// argument turned inward: observing a container must never perturb it.
// A metric is one atomic cell with no lock on the hot path, the
// recorder stamps events with logical time only (no time.Now()), and nothing
// in this package feeds back into guest-visible state — the on/off
// equivalence tests in internal/core and internal/buildsim pin that.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone counter: one atomic cell.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a dense vector of counters indexed by a small integer — the
// shape of the kernel's per-syscall table, where the index is the syscall
// number. Adds are single atomic ops on a flat slice. A vector reads as
// zeros past its end, and absorbing a longer one grows it (see Absorb), so
// vectors of one name need not share a length.
type CounterVec struct {
	name string
	mu   sync.RWMutex // held exclusively only while the vector grows
	v    []int64
}

// Name returns the vector's registry name.
func (cv *CounterVec) Name() string { return cv.name }

// Len returns the index capacity.
func (cv *CounterVec) Len() int { return len(cv.counts()) }

// Add bumps index i by n; i must be in range.
func (cv *CounterVec) Add(i int, n int64) {
	cv.mu.RLock()
	atomic.AddInt64(&cv.v[i], n)
	cv.mu.RUnlock()
}

// At reads index i, 0 past the end.
func (cv *CounterVec) At(i int) int64 {
	v := cv.counts()
	if uint(i) >= uint(len(v)) {
		return 0
	}
	return atomic.LoadInt64(&v[i])
}

// absorb adds src's counts index by index, growing the vector first when
// src is longer. It copies rather than appends: an adopted slice's spare
// capacity is not the vector's.
func (cv *CounterVec) absorb(src []int64) {
	if len(src) > cv.Len() {
		cv.mu.Lock()
		if len(src) > len(cv.v) {
			v := make([]int64, len(src))
			copy(v, cv.v)
			cv.v = v
		}
		cv.mu.Unlock()
	}
	cv.mu.RLock()
	defer cv.mu.RUnlock()
	for i := range src {
		if n := atomic.LoadInt64(&src[i]); n != 0 {
			atomic.AddInt64(&cv.v[i], n)
		}
	}
}

// counts returns the vector's current slot slice, for atomic reads. A later
// growth replaces the slice and leaves this one as it was.
func (cv *CounterVec) counts() []int64 {
	cv.mu.RLock()
	defer cv.mu.RUnlock()
	return cv.v
}

// Registry is a namespace of metrics. Lookup is mutex-guarded (cold path:
// clients cache the returned handle); the handles count atomically.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	vecs     map[string]*CounterVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		vecs:     make(map[string]*CounterVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Publish registers v as the value of the named counter, replacing any
// counter registered under name: a finished run publishes each count it kept
// once, and a build farm republishes its counts each time they are read.
func (r *Registry) Publish(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Counter{name: name}
	c.v.Store(v)
	r.counters[name] = c
}

// CounterVec returns the named dense vector, creating it with n slots on
// first use.
func (r *Registry) CounterVec(name string, n int) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	cv, ok := r.vecs[name]
	if !ok {
		cv = &CounterVec{name: name, v: make([]int64, n)}
		r.vecs[name] = cv
	}
	return cv
}

// AdoptVec registers v as the named dense vector without copying it: a
// finished run publishes its per-syscall table this way, and whoever hands
// v over never writes it again. A vector already registered under name is
// returned as it is.
func (r *Registry) AdoptVec(name string, v []int64) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	cv, ok := r.vecs[name]
	if !ok {
		cv = &CounterVec{name: name, v: v}
		r.vecs[name] = cv
	}
	return cv
}

// Sample is one gathered metric value.
type Sample struct {
	Name  string
	Value int64
}

// Gather snapshots every scalar metric, sorted by name. Vectors expand to
// <name>{idx} entries for non-zero indexes.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Value: c.Value()})
	}
	for name, cv := range r.vecs {
		v := cv.counts()
		for i := range v {
			if n := atomic.LoadInt64(&v[i]); n != 0 {
				out = append(out, Sample{Name: fmt.Sprintf("%s{idx=%d}", name, i), Value: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Absorb adds every metric value of src into this registry's same-named
// metrics, creating them as needed — the farm roll-up: each container's
// registry folds into the farm's. Absorbing is add-only and commutative, so
// the roll-up total is independent of worker scheduling. A vector is sized to
// the longest of its sources, so no index is dropped. src's handles are
// collected under its lock and read after it is released, so no caller
// holds two registry locks at once.
func (r *Registry) Absorb(src *Registry) {
	if src == nil {
		return
	}
	src.mu.Lock()
	counters := make([]*Counter, 0, len(src.counters))
	for _, c := range src.counters {
		counters = append(counters, c)
	}
	vecs := make([]*CounterVec, 0, len(src.vecs))
	for _, cv := range src.vecs {
		vecs = append(vecs, cv)
	}
	src.mu.Unlock()

	for _, c := range counters {
		if v := c.Value(); v != 0 {
			r.Counter(c.name).Add(v)
		}
	}
	for _, cv := range vecs {
		v := cv.counts()
		r.CounterVec(cv.name, len(v)).absorb(v)
	}
}

// WriteProm writes a plain-text Prometheus-style dump: one `name value` line
// per scalar and `name{idx="..."}` lines per vector index, sorted so two
// dumps of equal registries are byte-identical.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	vnames := make([]string, 0, len(r.vecs))
	for name := range r.vecs {
		vnames = append(vnames, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	sort.Strings(vnames)

	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.Counter(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range vnames {
		cv := r.CounterVec(name, 0)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
			return err
		}
		v := cv.counts()
		for i := range v {
			if n := atomic.LoadInt64(&v[i]); n != 0 {
				if _, err := fmt.Fprintf(w, "%s{idx=\"%d\"} %d\n", name, i, n); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
