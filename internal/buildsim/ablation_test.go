package buildsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/debpkg"
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
		case reflect.Uint64:
			f.SetUint(uint64(i) + 2)
		case reflect.Struct:
			f.Set(reflect.ValueOf(reprotest.FaultPlan{KillNode: 2, DupMsg: 3}))
		default:
			t.Fatalf("Options.%s: kind %s not covered by this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	o.sealCap = 7
	d := o.derive(func(f *Options) { f.Nodes = 99 })
	dv := reflect.ValueOf(d).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch {
		case name == "Nodes":
			if d.Nodes != 99 {
				t.Errorf("override lost: Nodes = %d", d.Nodes)
			}
		case v.Type().Field(i).IsExported() && !reflect.DeepEqual(v.Field(i).Interface(), dv.Field(i).Interface()):
			t.Errorf("derive dropped Options.%s", name)
		}
	}
	if d.sealCap != 0 || d.stores() == o.stores() || d.Obs() == o.Obs() {
		t.Error("derived farm shares unexported state with its parent")
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
	reference := func(report string) string { return strings.SplitN(report, ";", 2)[0] }
	on, okOn := (&Options{Seed: 1}).CrashRecovery(spec, 0)
	off, okOff := (&Options{Seed: 1, NoWorkspaces: true}).CrashRecovery(spec, 0)
	if !okOn || !okOff {
		t.Fatalf("recovery diverged:\n%s\n%s", on, off)
	}
	if reference(on) == reference(off) {
		t.Errorf("NoWorkspaces did not reach the gate's builds: both report %q", reference(on))
	}
}

// Every row of the mechanism table, through the one runner, on a farm in
// checkpoint mode (so the delta-seal row has seals to switch): no row may move
// an output bit, and only a movesVirtualTime row may move the clock.
func TestAblationTable(t *testing.T) {
	specs := debpkg.Universe(1, 18)[10:] // includes the threaded pkg-00010 and pkg-00017
	o := &Options{Seed: 1, Jobs: 2, Checkpoints: true}
	for _, a := range ablations {
		pairs, on, off := o.ablate(a, specs, protocol{baseline: true})
		v := reprotest.Variation{}
		if reflect.DeepEqual(on.dtConfig(nil, "", 0, v), off.dtConfig(nil, "", 0, v)) && on.DisableTemplates == off.DisableTemplates {
			t.Errorf("%s: the switch switches nothing", a.name)
		}
		completed := 0
		for _, p := range pairs {
			if !p.ok {
				continue
			}
			completed++
			if !p.identical {
				t.Errorf("%s: %s differs across the ablation", a.name, p.spec.Name)
			}
			if a.moves != movesVirtualTime && p.onTime != p.offTime {
				t.Errorf("%s: %s virtual time moved: %d vs %d", a.name, p.spec.Name, p.onTime, p.offTime)
			}
		}
		if completed == 0 {
			t.Errorf("%s: no package completed", a.name)
		}
	}
}
