package main

// metricDef describes one reported metric. The tables below are the
// harness's half of BENCHMARK.json; bench_test.go pins that the two agree
// name for name, unit for unit.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// exact metrics are pure functions of (workload, seed, scale): virtual
	// time and counts read from public Result/Stats fields. -compare demands
	// bitwise equality for them; host metrics get the BENCHMARK.json bound.
	exact bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; host-clock unless prefixed virt_.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", false},
	{"ops_per_s", "op/s", "higher", false},
	{"op_ms_p50", "ms", "lower", false},
	{"op_ms_p95", "ms", "lower", false},
	{"cpu_ms_per_op", "ms", "lower", false},
	{"alloc_kb_per_op", "KB", "lower", false},
	{"mallocs_per_op", "count", "lower", false},
	{"peak_rss_mb", "MB", "lower", false},
	{"virt_slowdown_x", "x", "lower", true},
	{"virt_us_per_op", "us", "lower", true},
}

// perLayer are the metrics of single layers, taken in the traced run. A
// workload reports 0 for a layer it never enters — that zero is the "should
// not move" prediction made checkable.
var perLayer = []metricDef{
	{"debpkg.materialize_us", "us", "lower", false},
	{"debpkg.image_kb", "KB", "lower", true},
	{"derive.treehash_us", "us", "lower", false},
	{"derive.store_put_us", "us", "lower", false},
	{"derive.store_get_us", "us", "lower", false},

	{"fs.fork_us", "us", "lower", false},
	{"fs.seal_full_us", "us", "lower", false},
	{"fs.seal_delta_us", "us", "lower", false},
	{"fs.seal_full_bytes", "count", "lower", true},
	{"fs.seal_delta_bytes", "count", "lower", true},
	{"fs.seal_validate_us", "us", "lower", false},
	{"fs.seal_restore_us", "us", "lower", false},

	{"kernel.prepare_us", "us", "lower", false},
	{"kernel.boot_us", "us", "lower", false},
	{"kernel.native_run_ms", "ms", "lower", false},
	{"kernel.actions_per_s", "1/s", "higher", false},
	{"kernel.syscalls_per_op", "count", "lower", true},

	{"core.cold_new_us", "us", "lower", false},
	{"core.template_us", "us", "lower", false},
	{"core.fork_us", "us", "lower", false},
	{"core.confighash_ns", "ns", "lower", false},
	{"core.run_ms", "ms", "lower", false},
	{"core.buffered_ns_per_call", "ns", "lower", false},
	{"core.traced_ns_per_call", "ns", "lower", false},
	{"core.spawn_us", "us", "lower", false},
	{"core.thread_sync_us", "us", "lower", false},
	{"core.resume_ms", "ms", "lower", false},
	{"core.checkpoint_overhead_frac", "fraction", "lower", false},

	{"tracer.stops_per_op", "count", "lower", true},
	{"tracer.buffered_per_op", "count", "higher", true},
	{"tracer.flushes_per_op", "count", "lower", true},
	{"tracer.buffered_frac", "fraction", "higher", true},
	{"sched.requests_per_op", "count", "lower", true},

	{"obs.record_ns", "ns", "lower", false},
	{"obs.marshal_us", "us", "lower", false},
	{"obs.absorb_us", "us", "lower", false},
	{"obs.events_per_op", "count", "lower", true},

	{"buildsim.overhead_frac", "fraction", "lower", false},
	{"buildsim.jobs_scaling_x", "x", "higher", false},
	{"buildsim.template_hit_frac", "fraction", "higher", true},
	{"stripnd.strip_us", "us", "lower", false},

	{"farm.run_us_per_job", "us", "lower", false},
	{"farm.attest_us_per_job", "us", "lower", false},
	{"farm.envelope_encode_ns", "ns", "lower", false},
	{"farm.envelope_decode_ns", "ns", "lower", false},
	{"farm.shard_put_us", "us", "lower", false},
	{"farm.shard_get_us", "us", "lower", false},
	{"farm.msgs_per_job", "count", "lower", false},
	{"farm.dedup_frac", "fraction", "higher", false},
	{"farm.steals", "count", "lower", true},

	{"attest.sign_us", "us", "lower", false},
	{"attest.verify_sig_us", "us", "lower", false},
	{"attest.codec_ns", "ns", "lower", false},
	{"attest.admit_us", "us", "lower", false},
	{"attest.chain_seal_us", "us", "lower", false},
	{"attest.verify_query_us", "us", "lower", false},
	{"attest.verify_hops", "count", "lower", true},
	{"attest.keyring_us", "us", "lower", false},

	{"ttd.seek_ms", "ms", "lower", false},
	{"ttd.seek_replayed_actions", "count", "lower", true},

	{"proc.gc_cpu_frac", "fraction", "lower", false},
	{"proc.clients_scaling_x", "x", "higher", false},

	// The traced run's own accounting: how much of the op time the named
	// spans cover, where it went by layer, and what tracing cost.
	{"trace_overhead_frac", "fraction", "lower", false},
	{"trace_attributed_frac", "fraction", "higher", false},
	{"share.debpkg_frac", "fraction", "lower", false},
	{"share.derive_frac", "fraction", "lower", false},
	{"share.fs_frac", "fraction", "lower", false},
	{"share.kernel_frac", "fraction", "lower", false},
	{"share.core_frac", "fraction", "lower", false},
	{"share.obs_frac", "fraction", "lower", false},
	{"share.stripnd_frac", "fraction", "lower", false},
	{"share.farm_frac", "fraction", "lower", false},
	{"share.attest_frac", "fraction", "lower", false},
	{"share.ttd_frac", "fraction", "lower", false},
}

// shareLayers are the layers share.<layer>_frac reports. baseimg counts
// under debpkg (image assembly), buildsim's compare under stripnd.
var shareLayers = []string{"debpkg", "derive", "fs", "kernel", "core", "obs",
	"stripnd", "farm", "attest", "ttd"}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
