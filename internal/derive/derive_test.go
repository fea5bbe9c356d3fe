package derive

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHasherMatchesDigestBytes(t *testing.T) {
	h := NewHasher()
	h.Bytes([]byte("hello"))
	if got, want := h.Sum(), DigestBytes([]byte("hello")); got != want {
		t.Fatalf("Hasher.Bytes = %#x, DigestBytes = %#x", got, want)
	}
}

func TestDigestU64Restart(t *testing.T) {
	if DigestU64(0, 7) != DigestU64(DigestU64(0), 7) {
		t.Fatal("DigestU64(0, ...) must restart from the offset basis")
	}
	if DigestU64(0, 1, 2) != DigestU64(DigestU64(0, 1), 2) {
		t.Fatal("DigestU64 must be foldable")
	}
}

func TestStrFramingDistinguishesBoundaries(t *testing.T) {
	a := NewHasher()
	a.Str("ab")
	a.Str("c")
	b := NewHasher()
	b.Str("a")
	b.Str("bc")
	if a.Sum() == b.Sum() {
		t.Fatal("length-prefixed strings must not collide across boundaries")
	}
}

func TestKeyHashShard(t *testing.T) {
	k := KeyFor(11, 22)
	if k.Hash() != DigestU64(0, 11, 22) {
		t.Fatal("Key.Hash must fold image then config")
	}
	if k.Shard(1) != 0 || k.Shard(0) != 0 {
		t.Fatal("degenerate shard counts must map to 0")
	}
	if s := k.Shard(5); s < 0 || s > 4 {
		t.Fatalf("Shard(5) = %d out of range", s)
	}
}

func TestFoldLeavesCommitsToPaths(t *testing.T) {
	a := FoldLeaves(map[string]uint64{"x": 1, "y": 2})
	b := FoldLeaves(map[string]uint64{"y": 2, "x": 1})
	if a != b {
		t.Fatal("fold must be independent of map iteration order")
	}
	if a == FoldLeaves(map[string]uint64{"x": 1, "z": 2}) {
		t.Fatal("fold must commit to the path set")
	}
	if a == FoldLeaves(map[string]uint64{"x": 1, "y": 3}) {
		t.Fatal("fold must commit to leaf values")
	}
}

func TestTreeDiff(t *testing.T) {
	base := TreeHash{Leaves: map[string]uint64{"a": 1, "b": 2, "c": 3}}
	same := TreeHash{Leaves: map[string]uint64{"a": 1, "b": 2, "c": 3}}
	if dirty, shape := same.Diff(base); len(dirty) != 0 || shape {
		t.Fatalf("identical trees must diff clean, got %v shape=%v", dirty, shape)
	}
	patched := TreeHash{Leaves: map[string]uint64{"a": 1, "b": 9, "c": 3}}
	dirty, shape := patched.Diff(base)
	if shape || !reflect.DeepEqual(dirty, []string{"b"}) {
		t.Fatalf("content patch: dirty=%v shape=%v", dirty, shape)
	}
	added := TreeHash{Leaves: map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4}}
	if _, shape := added.Diff(base); !shape {
		t.Fatal("an added path must be a shape change")
	}
	removed := TreeHash{Leaves: map[string]uint64{"a": 1, "b": 2}}
	if dirty, shape := removed.Diff(base); !shape || !reflect.DeepEqual(dirty, []string{"c"}) {
		t.Fatalf("removal: dirty=%v shape=%v", dirty, shape)
	}
}

func planFixture() (TreeHash, Inputs, []SealInfo) {
	base := TreeHash{Leaves: map[string]uint64{
		"p/debian/rules":   1,
		"p/debian/control": 2,
		"p/configure.ac":   3,
		"p/Makefile":       4,
		"p/include/h0.h":   5,
		"p/src/u0.c":       6,
		"p/src/u1.c":       7,
		"p/src/u2.c":       8,
	}}
	in := Inputs{
		Phase:  []string{"p/debian/rules", "p/debian/control", "p/configure.ac"},
		Shared: []string{"p/Makefile", "p/include/h0.h"},
		Units: map[string][]string{
			"u0.c": {"p/src/u0.c"},
			"u1.c": {"p/src/u1.c"},
			"u2.c": {"p/src/u2.c"},
		},
	}
	seals := []SealInfo{
		{Ordinal: 1},
		{Ordinal: 2, Configured: true},
		{Ordinal: 3, Configured: true, Units: []string{"u0.c"}},
		{Ordinal: 4, Configured: true, Units: []string{"u0.c", "u1.c"}},
	}
	return base, in, seals
}

func patch(base TreeHash, paths ...string) TreeHash {
	leaves := make(map[string]uint64, len(base.Leaves))
	for p, v := range base.Leaves {
		leaves[p] = v
	}
	for _, p := range paths {
		leaves[p] ^= 0xdead
	}
	return TreeHash{Leaves: leaves}
}

func TestPlanRebuildUnitPatch(t *testing.T) {
	base, in, seals := planFixture()
	// Patch the last unit: every seal's prefix is clean, fork the freshest.
	p := PlanRebuild(base, patch(base, "p/src/u2.c"), in, seals)
	if p.Cold || p.Ordinal != 4 {
		t.Fatalf("u2 patch: got %+v", p)
	}
	if !reflect.DeepEqual(p.DirtyUnits, []string{"u2.c"}) || !reflect.DeepEqual(p.Reused, []string{"u0.c", "u1.c"}) {
		t.Fatalf("u2 patch reuse split: got %+v", p)
	}
	// Patch a built unit: seals carrying it are out, the post-configure
	// seal survives.
	p = PlanRebuild(base, patch(base, "p/src/u0.c"), in, seals)
	if p.Cold || p.Ordinal != 2 {
		t.Fatalf("u0 patch: got %+v", p)
	}
}

func TestPlanRebuildSharedAndPhase(t *testing.T) {
	base, in, seals := planFixture()
	// A header dirties every unit but not the configure phase.
	p := PlanRebuild(base, patch(base, "p/include/h0.h"), in, seals)
	if p.Cold || p.Ordinal != 2 || len(p.DirtyUnits) != 3 {
		t.Fatalf("header patch: got %+v", p)
	}
	// A phase input invalidates everything after the initial execve.
	p = PlanRebuild(base, patch(base, "p/debian/rules"), in, seals)
	if p.Cold || p.Ordinal != 1 {
		t.Fatalf("rules patch: got %+v", p)
	}
}

func TestPlanRebuildCold(t *testing.T) {
	base, in, seals := planFixture()
	// Unclaimed dirty path: declared inputs under-approximate, go cold.
	stray := patch(base)
	stray.Leaves["p/unclaimed"] = 1
	base2 := patch(base)
	base2.Leaves["p/unclaimed"] = 2
	p := PlanRebuild(base2, stray, in, seals)
	if !p.Cold {
		t.Fatalf("unclaimed dirty path must force cold, got %+v", p)
	}
	// Shape change: always cold.
	added := patch(base)
	added.Leaves["p/src/u3.c"] = 9
	if p := PlanRebuild(base, added, in, seals); !p.Cold {
		t.Fatalf("shape change must force cold, got %+v", p)
	}
	// Phase patch with no ordinal-1 seal: cold.
	if p := PlanRebuild(base, patch(base, "p/debian/rules"), in, seals[1:]); !p.Cold {
		t.Fatalf("phase patch without a clean seal must force cold, got %+v", p)
	}
	// Clean diff: freshest seal, nothing dirty.
	if p := PlanRebuild(base, patch(base), in, seals); p.Cold || p.Ordinal != 4 || len(p.Dirty) != 0 {
		t.Fatalf("clean diff: got %+v", p)
	}
}

// storeShapes are the configurations the one store implementation runs in:
// the in-process default, the coordinator's sharded store, and a bounded
// cache roomy enough that nothing below is evicted.
func storeShapes() map[string]*MemStore {
	return map[string]*MemStore{
		"mem":     NewMemStore(),
		"sharded": NewStore(3, 0, nil),
		"bounded": NewStore(1, 64, nil),
	}
}

func TestMemStoreLease(t *testing.T) {
	for shape, m := range storeShapes() {
		k := KeyFor(1, 2)
		if v, ok := m.GetOrLease(k); ok || v != nil {
			t.Fatalf("%s: first requester must hold the lease", shape)
		}
		var wg sync.WaitGroup
		got := make([]any, 3)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, ok := m.GetOrLease(k)
				if !ok {
					t.Errorf("%s: waiter must observe the filled lease", shape)
				}
				got[i] = v
			}(i)
		}
		m.Put(k, "built")
		wg.Wait()
		for _, v := range got {
			if v != "built" {
				t.Fatalf("%s: waiter got %v", shape, v)
			}
		}
		m.Put(k, "dup") // first value wins
		if v, _ := m.GetOrLease(k); v != "built" {
			t.Fatalf("%s: redundant put must not overwrite, got %v", shape, v)
		}
	}
}

func TestMemStoreSeals(t *testing.T) {
	for shape, m := range storeShapes() {
		st := KeyFor(3, 4)
		if m.Latest(st, 7) != 0 {
			t.Fatalf("%s: empty store must report ordinal 0", shape)
		}
		m.PutSeal(SealKey{State: st, Job: 7, Ordinal: 2}, "s2", 22)
		m.PutSeal(SealKey{State: st, Job: 7, Ordinal: 1}, "s1", 11)
		if m.Latest(st, 7) != 2 {
			t.Fatalf("%s: latest = %d, want 2", shape, m.Latest(st, 7))
		}
		v, d, ok := m.Seal(SealKey{State: st, Job: 7, Ordinal: 1})
		if !ok || v != "s1" || d != 11 {
			t.Fatalf("%s: seal 1 = %v %d %v", shape, v, d, ok)
		}
		m.PutSeal(SealKey{State: st, Job: 7, Ordinal: 1}, "other", 99)
		if v, d, _ := m.Seal(SealKey{State: st, Job: 7, Ordinal: 1}); v != "s1" || d != 11 {
			t.Fatalf("%s: PutSeal must be idempotent, got %v %d", shape, v, d)
		}
		if m.Latest(st, 8) != 0 {
			t.Fatalf("%s: latest must be per-job", shape)
		}
	}
}

// Exactly one of N concurrent requesters per key is told to build, and
// everyone sees that builder's value.
func TestStoreLeaseExactlyOnce(t *testing.T) {
	const keys, requesters = 8, 16
	for shape, m := range storeShapes() {
		var built [keys]atomic.Int32
		var wg sync.WaitGroup
		for k := 0; k < keys; k++ {
			for r := 0; r < requesters; r++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					v, _ := Prepared(m, KeyFor(uint64(k), 9), func() any {
						built[k].Add(1)
						return k * 100
					})
					if v != k*100 {
						t.Errorf("%s: key %d: got %v", shape, k, v)
					}
				}(k)
			}
		}
		wg.Wait()
		for k := range built {
			if n := built[k].Load(); n != 1 {
				t.Errorf("%s: key %d built %d times, want exactly 1", shape, k, n)
			}
		}
	}
}

// A cap-1 store keeps the pinned freshest seal of a live job and evicts its
// older ordinals; Release makes the freshest evictable too.
func TestStorePinnedSealSurvivesPressure(t *testing.T) {
	evictions := 0
	m := NewStore(1, 1, func() { evictions++ })
	st := KeyFor(5, 6)
	for ord := 1; ord <= 5; ord++ {
		m.PutSeal(SealKey{State: st, Job: 1, Ordinal: ord}, ord, uint64(ord))
		if _, _, ok := m.Seal(SealKey{State: st, Job: 1, Ordinal: ord}); !ok {
			t.Fatalf("freshest seal %d evicted", ord)
		}
		if _, _, ok := m.Seal(SealKey{State: st, Job: 1, Ordinal: ord - 1}); ok {
			t.Fatalf("older seal %d survived a one-slot store", ord-1)
		}
	}
	if evictions != 4 {
		t.Fatalf("evictions = %d, want 4", evictions)
	}
	// A second live job's freshest seal is pinned too: the shard grows past
	// its cap rather than drop either.
	m.PutSeal(SealKey{State: st, Job: 2, Ordinal: 1}, "b", 0)
	if _, _, ok := m.Seal(SealKey{State: st, Job: 1, Ordinal: 5}); !ok {
		t.Fatal("pressure from another job evicted a pinned seal")
	}
	m.Release(st, 1)
	if m.Latest(st, 1) != 0 {
		t.Fatal("a released job is no longer live")
	}
	m.PutSeal(SealKey{State: st, Job: 2, Ordinal: 2}, "b2", 0)
	if _, _, ok := m.Seal(SealKey{State: st, Job: 1, Ordinal: 5}); ok {
		t.Fatal("released seal survived pressure")
	}
	if _, _, ok := m.Seal(SealKey{State: st, Job: 2, Ordinal: 2}); !ok {
		t.Fatal("live job's freshest seal evicted")
	}
}

// An unfilled lease is never evicted: its eventual put must reach the
// waiters, however many other keys pass through a one-slot store meanwhile.
func TestStoreUnfilledLeaseSurvivesPressure(t *testing.T) {
	m := NewStore(1, 1, nil)
	slow := KeyFor(1, 0)
	if _, ok := m.GetOrLease(slow); ok {
		t.Fatal("first requester must hold the lease")
	}
	for i := uint64(2); i < 10; i++ {
		Prepared(m, KeyFor(i, 0), func() any { return i })
	}
	got := make(chan any)
	go func() {
		v, ok := m.GetOrLease(slow)
		if !ok {
			t.Error("lease was evicted: a second requester was told to build")
		}
		got <- v
	}()
	m.Put(slow, "late")
	if v := <-got; v != "late" {
		t.Fatalf("waiter got %v", v)
	}
}

// Shard count is invisible: a random single-threaded op trace observes the
// same results on a 1-shard and an n-shard store.
func TestStoreShardCountInvisible(t *testing.T) {
	trace := func(m *MemStore) []any {
		rng := rand.New(rand.NewSource(42))
		var out []any
		for i := 0; i < 4000; i++ {
			k := KeyFor(uint64(rng.Intn(6)), uint64(rng.Intn(3)))
			sk := SealKey{State: k, Job: uint64(rng.Intn(3)), Ordinal: 1 + rng.Intn(5)}
			switch rng.Intn(6) {
			case 0:
				v, hit := Prepared(m, k, func() any { return i })
				out = append(out, v, hit)
			case 1:
				m.Put(k, -i)
			case 2:
				m.PutSeal(sk, i, uint64(i))
			case 3:
				v, d, ok := m.Seal(sk)
				out = append(out, v, d, ok)
			case 4:
				out = append(out, m.Latest(k, sk.Job))
			case 5:
				m.Release(k, sk.Job)
			}
		}
		return out
	}
	if one, many := trace(NewStore(1, 0, nil)), trace(NewStore(5, 0, nil)); !reflect.DeepEqual(one, many) {
		t.Fatal("a 5-shard store is observably different from a 1-shard store")
	}
}
