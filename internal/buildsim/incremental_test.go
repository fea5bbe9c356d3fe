package buildsim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/reprotest"
)

// incrSpecs picks well-behaved multi-unit packages from the universe: builds
// that complete under DetTrace, with enough compile units that per-unit seal
// reuse has something to reuse.
func incrSpecs(t *testing.T, seed uint64, n, minUnits int) []*debpkg.Spec {
	t.Helper()
	var out []*debpkg.Spec
	for _, s := range debpkg.Universe(seed, 60) {
		if s.Class != debpkg.BLRepro_DTRepro && s.Class != debpkg.BLIrrepro_DTRepro {
			continue
		}
		if s.Units < minUnits || s.Compiler != "cc" || s.BrokenSource {
			continue
		}
		out = append(out, s)
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("universe(%d) has only %d usable specs, want %d", seed, len(out), n)
	return nil
}

// TestPatchRebuildGate is the single-package incremental gate: patch one
// unit, rebuild from the derivation store, land bitwise on the cold build of
// the patch — and actually fork a seal while doing it.
func TestPatchRebuildGate(t *testing.T) {
	spec := incrSpecs(t, 5, 1, 3)[0]
	report, ok := (&Options{Seed: 5}).PatchRebuild(spec, "")
	if !ok {
		t.Fatalf("patch gate failed:\n%s", report)
	}
	if !strings.Contains(report, "forked seal ordinal") {
		t.Fatalf("gate degraded to a cold rebuild:\n%s", report)
	}
	t.Logf("\n%s", report)
}

// TestIncrementalEquivalence is the property test: the same chained patch
// schedule produces DeepEqual per-round observables across worker-pool
// sizes, derivation-store shapes (in-process MemStore vs farm shard maps of
// 1 and 3 shards) and the incremental ablation. Reuse may only move time,
// never a byte.
func TestIncrementalEquivalence(t *testing.T) {
	specs := incrSpecs(t, 7, 3, 2)
	const rounds = 3
	run := func(jobs int, incremental bool, store derive.Store) [][]RoundResult {
		o := &Options{Seed: 7, Jobs: jobs, Checkpoints: true, Incremental: incremental}
		outs := make([][]RoundResult, len(specs))
		o.forEach(len(specs), func(l obs.Local, i int) {
			rs, _, base := o.RebuildRounds(l, specs[i], store, rounds, false)
			if v, _ := base.verdict(); v != "" {
				t.Errorf("%s: base build did not complete: %s", specs[i].Name, v)
			}
			outs[i] = rs
		})
		return outs
	}

	// Reference: single worker, incremental, in-process store — and proof
	// the schedule exercises real seal forks, not wall-to-wall cold falls.
	refOpts := &Options{Seed: 7, Jobs: 1, Checkpoints: true, Incremental: true}
	refStore := derive.NewMemStore()
	ref := make([][]RoundResult, len(specs))
	forked := 0
	for i, spec := range specs {
		rs, sts, _ := refOpts.RebuildRounds(obs.NewLocal(), spec, refStore, rounds, false)
		ref[i] = rs
		for _, st := range sts {
			if !st.Cold {
				forked++
			}
		}
	}
	if forked == 0 {
		t.Fatal("no round forked a seal: the property would only compare cold builds")
	}

	cases := []struct {
		name        string
		jobs        int
		incremental bool
		store       derive.Store
	}{
		{"jobs4-mem", 4, true, derive.NewMemStore()},
		{"jobs16-mem", 16, true, derive.NewMemStore()},
		{"jobs1-shards1", 1, true, farm.NewShards(1)},
		{"jobs4-shards3", 4, true, farm.NewShards(3)},
		{"jobs1-cold", 1, false, derive.NewMemStore()},
		{"jobs4-cold-shards3", 4, false, farm.NewShards(3)},
	}
	for _, tc := range cases {
		got := run(tc.jobs, tc.incremental, tc.store)
		if !reflect.DeepEqual(got, ref) {
			for i := range got {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Errorf("%s: %s diverged from reference schedule", tc.name, specs[i].Name)
				}
			}
			t.Fatalf("%s: rebuild observables != reference", tc.name)
		}
	}
	t.Logf("%d/%d rounds forked a seal in the reference schedule", forked, len(specs)*rounds)
}

// TestIncrementalSealsFromFarmShards pins the cross-node story: a
// distributed checkpointed build publishes its seals to the coordinator's
// shard store, and a local rebuild of a patched tree forks one of those
// farm-produced seals — landing on the cold build's exact bits.
func TestIncrementalSealsFromFarmShards(t *testing.T) {
	spec := incrSpecs(t, 9, 1, 3)[0]
	o := &Options{Seed: 9, Checkpoints: true, Incremental: true,
		Distributed: true, Nodes: 3}
	o.BuildAll([]*debpkg.Spec{spec}, nil)
	o.farmMu.Lock()
	cl := o.lastFarm
	o.farmMu.Unlock()
	if cl == nil {
		t.Fatal("distributed BuildAll left no cluster behind")
	}
	store := cl.Shards()

	l := obs.NewLocal()
	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	img, pkgdir, imgHash := o.pkgImage(l, spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v1)
	state := derive.KeyFor(imgHash, core.ConfigHash(cfg))
	if store.Latest(state, 1) == 0 {
		t.Fatal("farm published no seals for job 1")
	}

	s := &rebuildSession{spec: spec, store: store, img: img, pkgdir: pkgdir,
		state: state, job: 1, tree: img.TreeHash(), seed: seed, v: v1}
	pimg := patchImage(img, pkgdir+"/src/unit000.c")
	got, st := o.incrementalRebuild(l, s, pimg)
	if st.Cold {
		t.Fatalf("rebuild went cold instead of forking a farm seal: %+v", st)
	}
	cold := (&Options{Seed: 9, Checkpoints: true}).
		runPatchedCold(obs.NewLocal(), spec, pimg, pkgdir, seed, v1)
	if got.exit != cold.exit || got.wall != cold.wall ||
		!bytes.Equal(got.deb, cold.deb) || !bytes.Equal(got.log, cold.log) {
		t.Fatalf("farm-seal rebuild diverged from the cold build of the patch")
	}
	t.Logf("forked farm seal ordinal %d: %d/%d units reused",
		st.SealOrdinal, st.UnitsReused, st.UnitsTotal)
}

// TestIncrementalAblationPartitionsKeys guards the key-space join: the
// DisableIncremental knob must flow into the config hash, so cached state
// can never cross the ablation.
func TestIncrementalAblationPartitionsKeys(t *testing.T) {
	spec := incrSpecs(t, 5, 1, 2)[0]
	l := obs.NewLocal()
	seed := pkgSeed(5, spec)
	v1, _ := reprotest.Pair(seed)
	on := &Options{Seed: 5, Incremental: true}
	off := &Options{Seed: 5}
	img, pkgdir, _ := on.pkgImage(l, spec, "/build")
	if core.ConfigHash(on.dtConfig(img, pkgdir, seed, v1)) ==
		core.ConfigHash(off.dtConfig(img, pkgdir, seed, v1)) {
		t.Fatal("DisableIncremental does not partition the derivation key space")
	}
}

// TestIncrementalStudy runs X18 small: every round bitwise-identical to its
// cold rebuild, seals actually forked, units actually reused, and a real
// rebuild-time win.
func TestIncrementalStudy(t *testing.T) {
	specs := incrSpecs(t, 11, 4, 3)
	st := (&Options{Seed: 11, Jobs: 2}).RunIncrementalStudy(specs, 2)
	if st.Rounds == 0 || st.Identical != st.Rounds {
		t.Fatalf("incremental rebuilds not bitwise-identical to cold: %+v", st)
	}
	if st.Forked == 0 || st.UnitsReused == 0 {
		t.Fatalf("study never reused derived state: %+v", st)
	}
	if st.Speedup <= 1 {
		t.Fatalf("no rebuild-time win: %+v", st)
	}
	t.Logf("\n%s", st)
}

// TestDeriveTraceRecordsReuse: the farm's derivation ring must carry the
// hit/miss events the rebuilds and template lookups produce.
func TestDeriveTraceRecordsReuse(t *testing.T) {
	spec := incrSpecs(t, 5, 1, 3)[0]
	o := &Options{Seed: 5, Checkpoints: true, Incremental: true}
	_, _, base := o.RebuildRounds(obs.NewLocal(), spec, derive.NewMemStore(), 2, true)
	if v, _ := base.verdict(); v != "" {
		t.Fatalf("base build did not complete: %s", v)
	}
	var hits, misses, phase int
	for _, ev := range o.DeriveTrace() {
		switch ev.Kind {
		case obs.KindDeriveHit:
			hits++
		case obs.KindDeriveMiss:
			misses++
		default:
			t.Fatalf("foreign event on the derive ring: %v", ev.Kind)
		}
		if ev.Ret == deriveGranPhase {
			phase++
		}
	}
	if hits == 0 || misses == 0 || phase == 0 {
		t.Fatalf("derive ring incomplete: %d hits, %d misses, %d phase-granularity events",
			hits, misses, phase)
	}
	for _, name := range []string{"checkpoint_delta_bytes", "checkpoint_full_bytes"} {
		if o.Obs().Counter(name).Value() == 0 {
			t.Errorf("incremental seals booked no %s", name)
		}
	}
}
