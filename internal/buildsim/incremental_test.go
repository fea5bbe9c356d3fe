package buildsim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/derive"
	"repro/internal/farm"
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
	o := &Options{Seed: 5}
	if report, ok := o.PatchRebuild(spec, ""); !ok {
		t.Fatalf("patch gate failed:\n%s", report)
	}
	st, det := o.patchCell(spec, "")
	if st == nil || !det || !st.OK() || st.Rounds != 1 {
		t.Fatalf("gate cell failed (det %v):\n%v", det, st)
	}
	if st.Forked != 1 {
		t.Fatalf("gate degraded to a cold rebuild:\n%s", st)
	}
	if report, ok := o.PatchRebuild(spec, "src/no-such-unit.c"); ok {
		t.Fatalf("patching a missing file passed:\n%s", report)
	}
	t.Logf("\n%s", st)
}

// TestIncrementalEquivalence is the property test: the same chained patch
// schedule produces DeepEqual per-round observables across worker-pool
// sizes, derivation-store shapes (in-process MemStore vs farm shard maps of
// 1 and 3 shards) and the incremental ablation. Reuse may only move time,
// never a byte.
func TestIncrementalEquivalence(t *testing.T) {
	specs := incrSpecs(t, 7, 3, 2)
	const rounds = 3
	run := func(jobs int, off core.Mechanisms, store derive.Store) [][]RoundResult {
		o := &Options{Seed: 7, Jobs: jobs, Checkpoints: true, Off: off}
		outs := make([][]RoundResult, len(specs))
		o.forEach(len(specs), func(i int) {
			rs, _, base := o.RebuildRounds(specs[i], store, patchSchedule(specs[i], o.Seed, rounds, false))
			if v, _ := base.verdict(); v != "" {
				t.Errorf("%s: base build did not complete: %s", specs[i].Name, v)
			}
			outs[i] = rs
		})
		return outs
	}

	// Reference: single worker, incremental, in-process store — and proof
	// the schedule exercises real seal forks, not wall-to-wall cold falls.
	refOpts := &Options{Seed: 7, Jobs: 1, Checkpoints: true}
	refStore := derive.NewMemStore()
	ref := make([][]RoundResult, len(specs))
	forked := 0
	for i, spec := range specs {
		rs, sts, _ := refOpts.RebuildRounds(spec, refStore, patchSchedule(spec, refOpts.Seed, rounds, false))
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
		name  string
		jobs  int
		off   core.Mechanisms
		store derive.Store
	}{
		{"jobs4-mem", 4, 0, derive.NewMemStore()},
		{"jobs16-mem", 16, 0, derive.NewMemStore()},
		{"jobs1-shards1", 1, 0, farm.NewShards(1)},
		{"jobs4-shards3", 4, 0, farm.NewShards(3)},
		{"jobs1-cold", 1, core.Off(core.Incremental), derive.NewMemStore()},
		{"jobs4-cold-shards3", 4, core.Off(core.Incremental), farm.NewShards(3)},
	}
	for _, tc := range cases {
		got := run(tc.jobs, tc.off, tc.store)
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
	o := &Options{Seed: 9, Checkpoints: true, Farm: farm.Config{Nodes: 3}}
	o.BuildAll([]*debpkg.Spec{spec}, nil)
	cl := o.LastFarm()
	if cl == nil {
		t.Fatal("distributed BuildAll left no cluster behind")
	}
	store := cl.Shards()

	seed := pkgSeed(o.Seed, spec)
	v1, _ := reprotest.Pair(seed)
	img, pkgdir, imgHash := o.pkgImage(spec, "/build")
	cfg := o.dtConfig(img, pkgdir, seed, v1)
	state := derive.KeyFor(imgHash, core.ConfigHash(cfg))
	if store.Latest(state, 1) == 0 {
		t.Fatal("farm published no seals for job 1")
	}

	s := &rebuildSession{spec: spec, store: store, img: img, pkgdir: pkgdir,
		state: state, job: 1, tree: img.TreeHash(), seed: seed, v: v1}
	pimg := patchImage(img, pkgdir, "src/unit000.c")
	got, st := o.incrementalRebuild(s, pimg)
	if st.Cold {
		t.Fatalf("rebuild went cold instead of forking a farm seal: %+v", st)
	}
	cold := (&Options{Seed: 9, Checkpoints: true}).
		runPatchedCold(spec, pimg, pkgdir, seed, v1)
	if got.exit != cold.exit || got.wall != cold.wall ||
		!bytes.Equal(got.deb, cold.deb) || !bytes.Equal(got.log, cold.log) {
		t.Fatalf("farm-seal rebuild diverged from the cold build of the patch")
	}
	t.Logf("forked farm seal ordinal %d: %d/%d units reused",
		st.SealOrdinal, st.UnitsReused, st.UnitsTotal)
}

// TestIncrementalAblationPartitionsKeys guards the key-space join: the
// incremental row of Options.Off must flow into the config hash, so cached state
// can never cross the ablation.
func TestIncrementalAblationPartitionsKeys(t *testing.T) {
	spec := incrSpecs(t, 5, 1, 2)[0]
	seed := pkgSeed(5, spec)
	v1, _ := reprotest.Pair(seed)
	on := &Options{Seed: 5}
	off := &Options{Seed: 5, Off: core.Off(core.Incremental)}
	img, pkgdir, _ := on.pkgImage(spec, "/build")
	if core.ConfigHash(on.dtConfig(img, pkgdir, seed, v1)) ==
		core.ConfigHash(off.dtConfig(img, pkgdir, seed, v1)) {
		t.Fatal("the incremental row does not partition the derivation key space")
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

// TestDeriveCountersRecordReuse: the farm's derivation counters must carry
// the hits and misses the rebuilds and template lookups produce — one
// phase-granularity lookup per round, and units reused on a forked one.
func TestDeriveCountersRecordReuse(t *testing.T) {
	spec := incrSpecs(t, 5, 1, 3)[0]
	o := &Options{Seed: 5, Checkpoints: true}
	const rounds = 2
	_, sts, base := o.RebuildRounds(spec, derive.NewMemStore(), patchSchedule(spec, o.Seed, rounds, true))
	if v, _ := base.verdict(); v != "" {
		t.Fatalf("base build did not complete: %s", v)
	}
	c := func(name string) int64 { return o.Obs().Counter(name).Value() }
	forked := 0
	for _, st := range sts {
		if !st.Cold {
			forked++
		}
	}
	if hits, misses := c("farm_derive_phase_hits"), c("farm_derive_phase_misses"); hits != int64(forked) || hits+misses != rounds {
		t.Fatalf("phase lookups: %d hits, %d misses; want %d hits of %d rounds", hits, misses, forked, rounds)
	}
	if forked == 0 || c("farm_derive_units_reused") == 0 {
		t.Fatalf("no round reused derived state: %d forked, %d units reused", forked, c("farm_derive_units_reused"))
	}
	if c("farm_template_hits")+c("farm_template_misses") == 0 {
		t.Fatal("template lookups booked nothing")
	}
	for _, name := range []string{"checkpoint_delta_bytes", "checkpoint_full_bytes"} {
		if o.Obs().Counter(name).Value() == 0 {
			t.Errorf("incremental seals booked no %s", name)
		}
	}
}
