package main

// metricSpec names one reported metric and its unit. The lists match
// BENCHMARK.json at the repository root (pinned by a test).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cases_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"allocs_per_case", "count"},
	{"peak_rss_mb", "MiB"},
	{"sim_cycles_per_case", "cycles"},
}

// perLayer are the metrics of a traced run: per op unless the name
// says otherwise. A layer a workload does not run reads 0.
var perLayer = []metricSpec{
	{"lang.parse_ms", "ms"},
	{"compiler.compile_ms", "ms"},
	{"flow.compile_ms", "ms"},
	{"flow.compile_views_ms", "ms"},
	{"flow.compile_allocs", "count"},
	{"flow.elaborate_ms", "ms"},
	{"flow.simulate_ms", "ms"},
	{"flow.simulate_allocs", "count"},
	{"hades.run_ms", "ms"},
	{"hades.events", "count"},
	{"hades.events_per_s", "1/s"},
	{"netlist.elaborate_ms", "ms"},
	{"flow.verify_ms", "ms"},
	{"interp.ms", "ms"},
	{"interp.steps", "count"},
	{"flow.verify_allocs", "count"},
	{"flow.gang_round_ms", "ms"},
	{"cycle.run_ms", "ms"},
	{"rtg.gang_self_ms", "ms"},
	{"cycle.lane_cycles_per_s", "1/s"},
	{"cycle.allocs_per_round", "count"},
	{"workloads.check_ms", "ms"},
	{"sweep.shard_ms", "ms"},
	{"sweep.shard_ms_per_case", "ms"},
	{"sweep.coordinator_self_ms", "ms"},
	{"sweep.merge_ms", "ms"}, // one merge of the whole campaign
	{"sweep.slot_busy_ratio", "ratio"},
	{"sweep.retried", "count"},
	{"sweep.hedges", "count"},
	{"sweep.steals", "count"},
	{"scenario.prepares_per_case", "ratio"},
	{"api.trace_bytes_per_case", "bytes"},
	{"simd.request_ms", "ms"},
	{"simd.transport_ms", "ms"},
	{"simd.handler_self_ms", "ms"},
	{"simd.round_ms", "ms"},
	{"simd.pool_hit_ratio", "ratio"},
	{"simd.rejected", "count"},
	{"simd.failed", "count"},
	{"rtg.replay_ratio", "ratio"},
	{"api.ndjson_bytes_per_request", "bytes"},
	{"go.gc_cycles_per_kcase", "count"},
	{"go.gc_pause_ms_per_case", "ms"},
	{"trace.cases_per_s", "1/s"},
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
