package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/buildsim"
)

// hostKeys are the twelve host-clock keys BENCH_2026-08-08.json carried and
// the study report no longer does: they are noise on a shared box, and bench/
// measures each with a better estimator.
var hostKeys = map[string]bool{
	"syscall_buffered.ns_per_op": true, "syscall_buffered.calls_per_sec": true,
	"syscall_unbuffered.ns_per_op": true, "syscall_unbuffered.calls_per_sec": true,
	"templates.farm_setup_ns_templates_on": true, "templates.farm_setup_ns_templates_off": true,
	"templates.setup_reduction": true, "templates.avg_fork_ns": true, "templates.avg_cold_setup_ns": true,
	"ttd.seek_ns": true, "ttd.cold_replay_ns": true,
	"attest.verify_cost_pct": true,
}

// tagPaths collects the dotted JSON key paths a type marshals to, following
// pointers, inlining embedded structs and descending into slices of structs.
func tagPaths(t reflect.Type, pre string, out map[string]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		out[strings.TrimSuffix(pre, ".")] = true
		return
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name == "-" || !f.IsExported() && !f.Anonymous:
		case name == "" && f.Anonymous:
			tagPaths(f.Type, pre, out)
		case name == "":
			tagPaths(f.Type, pre+f.Name+".", out)
		default:
			tagPaths(f.Type, pre+name+".", out)
		}
	}
}

// leafPaths collects the same paths from a decoded JSON document.
func leafPaths(v any, pre string, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			leafPaths(e, pre+k+".", out)
		}
	case []any:
		if len(v) > 0 {
			if _, isObj := v[0].(map[string]any); isObj {
				leafPaths(v[0], pre, out)
				return
			}
		}
		out[strings.TrimSuffix(pre, ".")] = true
	default:
		out[strings.TrimSuffix(pre, ".")] = true
	}
}

// The schema guard: every key of the committed snapshot that is not a host
// duration is still a key of benchReport (downstream tracking keeps parsing),
// and none of the host keys came back.
func TestReportSchema(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2026-08-08.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	committed, schema := map[string]bool{}, map[string]bool{}
	leafPaths(doc, "", committed)
	tagPaths(reflect.TypeOf(benchReport{}), "", schema)
	kept := 0
	for k := range committed {
		switch {
		case hostKeys[k]:
		case !schema[k]:
			t.Errorf("key %s of the committed snapshot is gone from benchReport", k)
		default:
			kept++
		}
	}
	if kept != 109 {
		t.Errorf("%d snapshot keys kept, want 109", kept)
	}
	for k := range hostKeys {
		if !committed[k] {
			t.Errorf("host key %s is not in the committed snapshot (stale list?)", k)
		}
		if schema[k] {
			t.Errorf("host-clock key %s is back in benchReport", k)
		}
	}
}

// The registry: flags and JSON keys are distinct, every row is reachable, and
// every section — run at -n 4 — renders, passes its own oracle, and lands in
// a report that survives a JSON round trip with each keyed row's key present.
func TestSections(t *testing.T) {
	flags, keys := map[string]bool{}, map[string]bool{}
	for _, s := range sections {
		if s.flag == "" && s.key == "" {
			t.Errorf("%q has neither a flag nor a JSON key: unreachable", s.title)
		}
		if s.flag != "" && flags[s.flag] || s.key != "" && keys[s.key] {
			t.Errorf("%q reuses flag %q or key %q", s.title, s.flag, s.key)
		}
		flags[s.flag], keys[s.key] = true, true
	}

	// One worker: the ttd study's sessions are large.
	e := &env{out: io.Discard, o: &buildsim.Options{Seed: 1, Jobs: 1}, n: 4, nport: 2,
		results: map[string]fmt.Stringer{}}
	for _, s := range sections {
		v, ok := s.do(e)
		if strings.TrimSpace(v.String()) == "" {
			t.Errorf("%q renders empty", s.title)
		}
		if !ok {
			t.Errorf("%q fails its oracle at -n 4:\n%s", s.title, v)
		}
	}
	data, err := json.Marshal(e.benchReport())
	if err != nil {
		t.Fatal(err)
	}
	var back benchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, _ := json.Marshal(&back)
	if string(again) != string(data) {
		t.Error("report does not survive a JSON round trip")
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if k != "" && doc[k] == nil {
			t.Errorf("keyed section %q left no value in the report", k)
		}
	}
}
