package buildsim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/debpkg"
	"repro/internal/farm"
	"repro/internal/reprotest"
)

// derive must carry every exported Options field — a forgotten one is a
// mechanism flag a study silently drops — and nothing else: the derived farm
// owns fresh stores and counters.
func TestDeriveCopiesEveryExportedField(t *testing.T) {
	o := &Options{}
	v := reflect.ValueOf(o).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(int64(i) + 2)
		case reflect.Uint64, reflect.Uint16:
			f.SetUint(uint64(i) + 2)
		case reflect.Struct:
			f.Set(reflect.ValueOf(farm.Config{Nodes: 2, Slots: 3, PlacementSeed: 4,
				Plan: reprotest.FaultPlan{KillNode: 2, DupMsg: 3}, Attest: true, KeySeed: 5}))
		default:
			t.Fatalf("Options.%s: kind %s not covered by this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	o.sealCap = 7
	// An override assigns one field of Farm; the rest of the caller's farm
	// settings must survive it.
	d := o.derive(func(f *Options) { f.Farm.Nodes = 99 })
	dv := reflect.ValueOf(d).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch {
		case name == "Farm":
			want := o.Farm
			want.Nodes = 99
			if !reflect.DeepEqual(d.Farm, want) {
				t.Errorf("derived Farm = %+v, want %+v", d.Farm, want)
			}
		case v.Type().Field(i).IsExported() && !reflect.DeepEqual(v.Field(i).Interface(), dv.Field(i).Interface()):
			t.Errorf("derive dropped Options.%s", name)
		}
	}
	if d.sealCap != 0 || d.stores() == o.stores() || d.Obs() == o.Obs() {
		t.Error("derived farm shares unexported state with its parent")
	}

	// A farm derived from one that has built starts counting from zero.
	p := &Options{Seed: 1, Jobs: 1, Checkpoints: true}
	p.BuildAll(debpkg.Universe(1, 1), nil)
	if p.SetupStats() == (SetupStats{}) || p.FaultStats() == (FaultStats{}) {
		t.Fatalf("parent farm counted nothing: %+v %+v", p.SetupStats(), p.FaultStats())
	}
	d = p.derive(func(*Options) {})
	if st, fst := d.SetupStats(), d.FaultStats(); st != (SetupStats{}) || fst != (FaultStats{}) {
		t.Errorf("derived farm inherited its parent's counts: %+v %+v", st, fst)
	}
}

// The gates used to rebuild their farm from the seed alone, so a caller's
// mechanism flags never reached the builds they ran. A javac package's
// checkpointed reference build takes different virtual time with and without
// workspaces; the crash gate must show that, and recover to the reference
// bits either way.
func TestCrashGateHonoursCallerFlags(t *testing.T) {
	var spec *debpkg.Spec
	for _, s := range debpkg.Universe(1, 40) {
		if s.Compiler == "javac" && s.Units > 8 {
			spec = s
			break
		}
	}
	if spec == nil {
		t.Fatal("no threaded package in the sample")
	}
	one := []*debpkg.Spec{spec}
	on := (&Options{Seed: 1}).faultStudy(one, 0)
	off := (&Options{Seed: 1, Off: core.Off(core.Workspaces)}).faultStudy(one, 0)
	if !on.OK() || !off.OK() || on.Crashed != 1 || off.Crashed != 1 {
		t.Fatalf("recovery diverged:\n%s\n%s", on, off)
	}
	// AvgReplayNs is the one crashed package's reference virtual time.
	if on.AvgReplayNs == off.AvgReplayNs {
		t.Errorf("Off did not reach the gate's builds: both references take %.0f ns", on.AvgReplayNs)
	}
}

// Every performance row of the mechanism table, through the one runner, on a
// farm in checkpoint mode (so the delta-seal row has seals to switch) with
// incremental rebuilds on (so the incremental row has something to switch): no
// row may move an output bit, and only a row whose contract moves the virtual
// clock may move it.
func TestAblationTable(t *testing.T) {
	specs := debpkg.Universe(1, 18)[10:] // includes the threaded pkg-00010 and pkg-00017
	o := &Options{Seed: 1, Jobs: 2, Checkpoints: true}
	for m := range core.NumMechanisms {
		if m.Breaks() != "" {
			continue
		}
		pairs, on, off := o.ablate(m, specs, protocol{baseline: true})
		v := reprotest.Variation{}
		if reflect.DeepEqual(on.dtConfig(nil, "", 0, v), off.dtConfig(nil, "", 0, v)) {
			t.Errorf("%s: the switch switches nothing", m)
		}
		completed := 0
		for _, p := range pairs {
			if !p.ok {
				continue
			}
			completed++
			if !p.identical {
				t.Errorf("%s: %s differs across the ablation", m, p.spec.Name)
			}
			if m.Moves() < core.MovesVirtualTime && p.onTime != p.offTime {
				t.Errorf("%s: %s virtual time moved: %d vs %d", m, p.spec.Name, p.onTime, p.offTime)
			}
		}
		if completed == 0 {
			t.Errorf("%s: no package completed", m)
		}
	}
}
