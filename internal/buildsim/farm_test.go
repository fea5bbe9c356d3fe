package buildsim

import (
	"reflect"
	"testing"

	"repro/internal/debpkg"
	"repro/internal/farm"
	"repro/internal/reprotest"
)

// farmCrashAt returns a mid-build crash point for the first spec's
// checkpointed DetTrace run, so node-kill plans are guaranteed to fire
// inside it.
func farmCrashAt(t *testing.T, seedOpt uint64, spec *debpkg.Spec) int64 {
	t.Helper()
	o := &Options{Seed: seedOpt, Checkpoints: true}
	seed := pkgSeed(seedOpt, spec)
	v1, _ := reprotest.Pair(seed)
	ref := o.buildDT(spec, seed, v1, nil)
	if v, _ := ref.verdict(); v != "" {
		t.Fatalf("probe build failed: %s", v)
	}
	if ref.actions < 2 {
		t.Fatalf("probe build too short: %d actions", ref.actions)
	}
	return ref.actions / 2
}

// TestDistributedFarmShapeEquivalence is the X16 oracle at the buildsim
// level: BuildAll output is DeepEqual across node counts x placement seeds x
// fault schedules, and equal to the local (single-process) checkpointed
// farm. Any placement, stale-shard or recovery bug must surface here as a
// bit difference.
func TestDistributedFarmShapeEquivalence(t *testing.T) {
	specs := debpkg.Universe(3, 2)
	ref := (&Options{Seed: 3, Jobs: 2, Checkpoints: true}).BuildAll(specs, nil)
	crashAt := farmCrashAt(t, 3, specs[0])

	var crashed, recovered int64
	for _, nodes := range []int{1, 3, 8} {
		for _, seed := range []uint64{1, 2} {
			// Kill the node the first package lands on, so crash plans fire
			// regardless of the placement seed under test.
			live := make([]int, nodes)
			for i := range live {
				live[i] = i + 1
			}
			kill := farm.Place(seed, pkgSeed(0, specs[0]), live)
			plans := map[string]reprotest.FaultPlan{
				"none":  {},
				"crash": {KillNode: kill, KillAtJob: 1, CrashAtAction: crashAt},
				"dup":   {DupMsg: 2},
			}
			for name, plan := range plans {
				o := &Options{Seed: 3, Checkpoints: true,
					Farm: farm.Config{Nodes: nodes, PlacementSeed: seed, Plan: plan}}
				got := o.BuildAll(specs, nil)
				if !reflect.DeepEqual(got, ref) {
					for i := range got {
						if !reflect.DeepEqual(got[i], ref[i]) {
							t.Errorf("nodes=%d seed=%d plan=%s: %s diverged:\n got %+v\nwant %+v",
								nodes, seed, name, specs[i].Name, got[i], ref[i])
						}
					}
					t.Fatalf("nodes=%d seed=%d plan=%s: farm output != local output",
						nodes, seed, name)
				}
				cl := o.LastFarm()
				if cl == nil {
					t.Fatalf("nodes=%d seed=%d plan=%s: no farm", nodes, seed, name)
				}
				st := cl.Stats()
				crashed += st.NodeCrashes
				recovered += st.Recoveries
				if st.Jobs != len(specs) {
					t.Fatalf("nodes=%d seed=%d plan=%s: %d jobs completed, want %d",
						nodes, seed, name, st.Jobs, len(specs))
				}
			}
		}
	}
	if crashed == 0 || recovered == 0 {
		t.Fatalf("fault plans never exercised recovery: crashes=%d recoveries=%d",
			crashed, recovered)
	}
}

// TestDistributedPlainMatchesLocal: with checkpoints off the distributed
// farm stays in the plain equivalence class — bitwise equal to the local
// plain BuildAll. The spec list repeats one package so two jobs share its
// prepared state: the first leases and builds it, the second fetches the
// farm-shared copy from the shard store (a state hit).
func TestDistributedPlainMatchesLocal(t *testing.T) {
	specs := debpkg.Universe(5, 3)
	specs = append(specs, specs[0])
	ref := (&Options{Seed: 5, Jobs: 2}).BuildAll(specs, nil)
	o := &Options{Seed: 5, Farm: farm.Config{Nodes: 3, PlacementSeed: 9}}
	got := o.BuildAll(specs, nil)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("plain distributed output != plain local output")
	}
	st := o.LastFarm().Stats()
	if st.SealPuts != 0 {
		t.Fatalf("plain farm published %d seals", st.SealPuts)
	}
	if st.StateMisses == 0 || st.StateHits == 0 {
		t.Fatalf("shard store unused: %d misses, %d hits", st.StateMisses, st.StateHits)
	}
}

// TestFarmCrashRecovery drives the reprotest gate end to end: a worker is
// killed mid-build, the job is stolen and restored from a shard-store seal
// on a different node, and the output matches the local reference bitwise.
func TestFarmCrashRecovery(t *testing.T) {
	spec := debpkg.Universe(1, 1)[0]
	o := &Options{Seed: 1}
	if report, ok := o.FarmCrashRecovery(spec, 3, 0); !ok {
		t.Fatalf("distributed crash recovery diverged:\n%s", report)
	}
	st, cl := o.farmCrashCell(spec, 3, 0)
	if !st.OK() || st.Cells != 1 {
		t.Fatalf("gate cell failed:\n%s", st)
	}
	reps := cl.Reports()
	if st.Crashes != 1 || st.Steals != 1 || st.Recoveries != 1 || st.ColdRecoveries != 0 ||
		len(reps) != 1 || reps[0].SealOrd == 0 || reps[0].Node == reps[0].StolenFrom {
		t.Fatalf("recovery did not restore from a seal on another node: %+v\n%s", reps, st)
	}
	t.Logf("\n%s", st)
}

// TestFarmCrashRecoveryLastNode kills the only worker: the coordinator must
// finish the job inline (local fallback) and still land on the same bits.
func TestFarmCrashRecoveryLastNode(t *testing.T) {
	spec := debpkg.Universe(1, 1)[0]
	o := &Options{Seed: 1}
	if report, ok := o.FarmCrashRecovery(spec, 1, 1); !ok {
		t.Fatalf("fallback crash recovery diverged:\n%s", report)
	}
	st, cl := o.farmCrashCell(spec, 1, 1)
	if !st.OK() || st.Cells != 1 {
		t.Fatalf("gate cell failed:\n%s", st)
	}
	if fst := cl.Stats(); fst.LocalFallbacks == 0 || fst.Recoveries != 1 {
		t.Fatalf("expected a recovery by coordinator fallback: %+v", fst)
	}
	t.Logf("\n%s", st)
}

// TestFarmSealTraffic: a checkpointed distributed build publishes its seals
// into the shard store and the farm counters see them; recovery-free runs
// never fetch one.
func TestFarmSealTraffic(t *testing.T) {
	specs := debpkg.Universe(7, 2)
	o := &Options{Seed: 7, Checkpoints: true, Farm: farm.Config{Nodes: 3}}
	o.BuildAll(specs, nil)
	st := o.LastFarm().Stats()
	if st.SealPuts == 0 {
		t.Fatal("checkpointed farm published no seals")
	}
	if st.Recoveries != 0 || st.NodeCrashes != 0 {
		t.Fatalf("fault-free farm recorded faults: %+v", st)
	}
	reports := o.LastFarm().Reports()
	if len(reports) != len(specs) {
		t.Fatalf("%d job reports, want %d", len(reports), len(specs))
	}
	for _, r := range reports {
		if r.Err != "" || r.Attempts != 1 || r.Recovered {
			t.Fatalf("fault-free job report off: %+v", r)
		}
	}
	// Seals published over the wire are sized like local ones: the farm
	// takes the same seals as the local pool, so it books the same bytes.
	local := &Options{Seed: 7, Checkpoints: true}
	local.BuildAll(specs, nil)
	for _, name := range []string{"checkpoint_delta_bytes", "checkpoint_full_bytes"} {
		got, want := o.Obs().Counter(name).Value(), local.Obs().Counter(name).Value()
		if got == 0 || got != want {
			t.Errorf("%s: distributed farm booked %d, local pool %d", name, got, want)
		}
	}
}
