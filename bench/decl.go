package bench

// Decl declares one metric. BENCHMARK.json at the repository root lists
// the same names, units and directions; the smoke test holds the two
// together.
type Decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd are the gated metrics, measured with tracing off on every
// workload.
var endToEnd = []Decl{
	{"setup_s", "s", "lower", 0.25},
	{"reports_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_report", "us", "lower", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"heap_peak_mb", "MiB", "lower", 0.20},
}

// perLayer are the ungated layer metrics of a traced run.
var perLayer = []Decl{
	// Stage budget: the six stages tile due → visible.
	{Name: "bench.gen_late_us", Unit: "us", Better: "lower"},
	{Name: "bench.gen_late_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.host_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "ais.decode_us", Unit: "us", Better: "lower"},
	{Name: "broker.produce_us", Unit: "us", Better: "lower"},
	{Name: "broker.wait_us", Unit: "us", Better: "lower"},
	{Name: "broker.lag_peak", Unit: "count", Better: "lower"},
	{Name: "pipeline.ingest_batch_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.actors_us", Unit: "us", Better: "lower"},
	// Latency tails: reported, never gated — on a two-core shared box
	// they follow the scheduler and the neighbours, not the program.
	{Name: "pipeline.visible_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.visible_p99_ms", Unit: "ms", Better: "lower"},
	// Program counters, window deltas per report made visible.
	{Name: "pipeline.vessel_proc_us", Unit: "us", Better: "lower"},
	{Name: "actor.queued_peak", Unit: "count", Better: "lower"},
	{Name: "actor.live_peak", Unit: "count", Better: "lower"},
	{Name: "actor.dead_letters", Unit: "count", Better: "lower"},
	{Name: "svrf.infer_us", Unit: "us", Better: "lower"},
	{Name: "svrf.forecasts_per_report", Unit: "ratio", Better: "higher"},
	{Name: "events.visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "events.visible_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "events.prox_update_us", Unit: "us", Better: "lower"},
	{Name: "events.coll_update_us", Unit: "us", Better: "lower"},
	{Name: "events.prox_updates_per_report", Unit: "ratio", Better: "lower"},
	{Name: "events.coll_updates_per_report", Unit: "ratio", Better: "lower"},
	{Name: "events.candidates_per_update", Unit: "ratio", Better: "lower"},
	{Name: "events.checked_per_candidate", Unit: "ratio", Better: "higher"},
	{Name: "events.emitted_per_report", Unit: "ratio", Better: "higher"},
	{Name: "events.tracked_peak", Unit: "count", Better: "lower"},
	{Name: "events.detect_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "feed.fanout_us", Unit: "us", Better: "lower"},
	{Name: "feed.dropped", Unit: "count", Better: "lower"},
	{Name: "feed.conflated", Unit: "count", Better: "lower"},
	{Name: "feed.frames_per_report", Unit: "ratio", Better: "lower"},
	{Name: "views.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "views.epochs", Unit: "count", Better: "higher"},
	{Name: "views.staleness_ms", Unit: "ms", Better: "lower"},
	{Name: "api.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "api.vessels_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.vessels_limit_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.vessels_bbox_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.events_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.regions_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.congestion_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.vessel_one_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.route_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.metrics_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.bytes_per_read", Unit: "B", Better: "lower"},
	{Name: "kvstore.keys", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "runtime.allocs_per_report", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	// Layer suite: one timed loop per layer's public entry point.
	{Name: "ais.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "ais.decode_static_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.produce_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.poll_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "actor.send_ns", Unit: "ns", Better: "lower"},
	{Name: "svrf.forecast_track_ns", Unit: "ns", Better: "lower"},
	{Name: "svrf.forecast_track_allocs", Unit: "count", Better: "lower"},
	{Name: "hexgrid.disk_covering_ns", Unit: "ns", Better: "lower"},
	{Name: "events.prox_update_ns_occ100", Unit: "ns", Better: "lower"},
	{Name: "events.coll_update_ns_occ100", Unit: "ns", Better: "lower"},
	{Name: "kvstore.hset_fields_ns", Unit: "ns", Better: "lower"},
	{Name: "views.apply_state_ns", Unit: "ns", Better: "lower"},
	{Name: "views.refresh_ms_10k", Unit: "ms", Better: "lower"},
	{Name: "views.snapshot_write_ns", Unit: "ns", Better: "lower"},
	{Name: "feed.publish_state_ns_16subs", Unit: "ns", Better: "lower"},
	{Name: "lvrf.forecast_route_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.train_sample_us", Unit: "us", Better: "lower"},
	{Name: "bench.budget_coverage", Unit: "ratio", Better: "higher"},
}
