package derive

import (
	"container/list"
	"sync"
)

// Store is the derivation store: content-addressed prepared state (baseline
// kernel snapshots, container templates) plus checkpoint seals, the reusable
// derived artifacts of a build. MemStore is the one implementation; the farm
// coordinator fronts one for cross-node reuse and a worker reaches it through
// the wire adapter (farm.ExecCtx.Store), so the interface is the lease
// protocol the farm wire format already speaks.
type Store interface {
	// GetOrLease returns the prepared state at k. The first caller for a
	// missing key gets (nil, false): it holds the lease and must call Put.
	// Later callers block until the lease is filled and return (val, true).
	GetOrLease(k Key) (any, bool)
	// Put fills the lease at k with the built state and wakes all waiters.
	Put(k Key, val any)
	// PutSeal stores a checkpoint seal under k and advances the
	// freshest-ordinal marker for its (state, job). Idempotent: first wins.
	PutSeal(k SealKey, val any, digest uint64)
	// Seal returns the seal stored at k, its digest, and whether it exists.
	Seal(k SealKey) (any, uint64, bool)
	// Latest returns the freshest seal ordinal recorded for (state, job),
	// or 0 if the job sealed nothing.
	Latest(state Key, job uint64) int
}

// Prepared returns the state at k, building it exactly once store-wide: the
// first requester holds the lease and runs build, concurrent requesters block
// until its Put lands. hit reports whether the value came from the store.
// Builds of prepared state never crash (only container runs carry fault
// plans), so a lease is always eventually filled.
func Prepared(s Store, k Key, build func() any) (val any, hit bool) {
	if v, ok := s.GetOrLease(k); ok {
		return v, true
	}
	v := build()
	s.Put(k, v)
	return v, false
}

// MemStore is the in-memory Store, sharded by Key.Shard so unrelated keys
// never contend. With a cap each shard keeps at most that many entries
// (prepared state and seals together), evicting least-recently-used first.
// Eviction drops the store's reference only — a value an in-flight build
// still holds stays alive until that build finishes, which is what makes
// eviction invisible to results.
//
// Two kinds of entry are pinned, never evicted: an unfilled lease (its
// waiters must see the put), and the freshest seal of each live (state,
// job) — the one a crash of that job would restore from. A pinned-full shard
// grows past its cap instead. Release ends a job's liveness.
type MemStore struct {
	shards  []shard
	cap     int    // per-shard entry bound; 0 = unbounded
	onEvict func() // called once per evicted entry, under the shard lock
}

type shard struct {
	mu     sync.Mutex
	state  map[Key]*entry
	seals  map[SealKey]*entry
	latest map[jobKey]int // freshest ordinal per live (state, job): the pin
	lru    list.List      // of *entry, front = most recently used; bounded stores only
}

type entry struct {
	key    SealKey       // prepared state fills only key.State
	ready  chan struct{} // prepared state only (nil for a seal): closed once val is set
	val    any
	digest uint64
	el     *list.Element
}

type jobKey struct {
	state Key
	job   uint64
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty single-shard, unbounded store — what
// incremental rebuilds and recorded sessions use, since they restore from
// arbitrarily old ordinals.
func NewMemStore() *MemStore { return NewStore(1, 0, nil) }

// NewStore returns an empty store with n shards (minimum 1), each bounded to
// cap entries (0 = unbounded). onEvict, when non-nil, is called once per
// evicted entry.
func NewStore(n, cap int, onEvict func()) *MemStore {
	if n < 1 {
		n = 1
	}
	m := &MemStore{shards: make([]shard, n), cap: cap, onEvict: onEvict}
	for i := range m.shards {
		m.shards[i].state = make(map[Key]*entry)
		m.shards[i].seals = make(map[SealKey]*entry)
		m.shards[i].latest = make(map[jobKey]int)
	}
	return m
}

func (m *MemStore) shard(k Key) *shard { return &m.shards[k.Shard(len(m.shards))] }

// insert files e as most recently used and evicts unpinned entries from the
// cold end until the shard is back under its cap. Caller holds sh.mu and has
// already linked e into its map.
func (m *MemStore) insert(sh *shard, e *entry) {
	if m.cap <= 0 {
		return
	}
	e.el = sh.lru.PushFront(e)
	for el := sh.lru.Back(); el != nil && sh.lru.Len() > m.cap; {
		victim, prev := el.Value.(*entry), el.Prev()
		if !sh.pinned(victim) {
			sh.lru.Remove(el)
			if victim.ready != nil {
				delete(sh.state, victim.key.State)
			} else {
				delete(sh.seals, victim.key)
			}
			if m.onEvict != nil {
				m.onEvict()
			}
		}
		el = prev
	}
}

func (sh *shard) pinned(e *entry) bool {
	if e.ready == nil {
		return sh.latest[jobKey{e.key.State, e.key.Job}] == e.key.Ordinal
	}
	select {
	case <-e.ready:
		return false
	default:
		return true // unfilled lease
	}
}

func (sh *shard) touch(e *entry) {
	if e.el != nil {
		sh.lru.MoveToFront(e.el)
	}
}

func (m *MemStore) GetOrLease(k Key) (any, bool) {
	sh := m.shard(k)
	sh.mu.Lock()
	e, ok := sh.state[k]
	if !ok {
		e = &entry{key: SealKey{State: k}, ready: make(chan struct{})}
		sh.state[k] = e
		m.insert(sh, e)
		sh.mu.Unlock()
		return nil, false
	}
	sh.touch(e)
	sh.mu.Unlock()
	<-e.ready
	return e.val, true
}

func (m *MemStore) Put(k Key, val any) {
	sh := m.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, leased := sh.state[k]
	if !leased {
		e = &entry{key: SealKey{State: k}, ready: make(chan struct{})}
		sh.state[k] = e
	}
	select {
	case <-e.ready:
		// Redundant put (duplicate delivery); first value wins.
	default:
		e.val = val
		close(e.ready)
	}
	if !leased {
		m.insert(sh, e)
	}
}

func (m *MemStore) PutSeal(k SealKey, val any, digest uint64) {
	sh := m.shard(k.State)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Advance the marker first, so the new seal takes over the job's pin
	// before insert looks for eviction victims.
	if jk := (jobKey{k.State, k.Job}); k.Ordinal > sh.latest[jk] {
		sh.latest[jk] = k.Ordinal
	}
	if _, ok := sh.seals[k]; !ok {
		e := &entry{key: k, val: val, digest: digest}
		sh.seals[k] = e
		m.insert(sh, e)
	}
}

func (m *MemStore) Seal(k SealKey) (any, uint64, bool) {
	sh := m.shard(k.State)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.seals[k]
	if !ok {
		return nil, 0, false
	}
	sh.touch(e)
	return e.val, e.digest, true
}

func (m *MemStore) Latest(state Key, job uint64) int {
	sh := m.shard(state)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.latest[jobKey{state, job}]
}

// Release marks (state, job) settled: its freshest seal loses its pin and
// ages out like any other entry, and Latest reports 0 for it from here on.
func (m *MemStore) Release(state Key, job uint64) {
	sh := m.shard(state)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.latest, jobKey{state, job})
}
