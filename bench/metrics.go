package main

// metricDef declares one metric: BENCHMARK.json, the result document and
// the compare tool all read this table, and a test holds BENCHMARK.json
// to it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by; 0 for per-layer metrics
	// Gate marks BENCHMARK.json's end_to_end list, which the driver reads on
	// every workload and holds to its bound run to run: metrics that every
	// workload defines, that are never 0, and that repeat within their
	// bound on every workload. The others are end-to-end for the workloads that define them and travel
	// in per_layer for the driver (0 where undefined).
	Gate bool
}

// endToEnd is what the operator of the daemon sees. A "period" is one
// pass of the closed loop: a collection period on the pipeline workloads,
// one episode on ft16-dist-chaos.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "period_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "period_mean_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "allocs_per_period", Unit: "count", Better: "lower", Bound: 0.15, Gate: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Gate: true},
	{Name: "period_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "prealert_p50_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "prealert_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "relief_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "relief_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "migrations_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "snapshot_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "restore_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_update", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0},
}

// failedShareRise is failed_share's bound: absolute, because its
// baseline is zero or close to it.
const failedShareRise = 0.001

// perLayer lists the traced pass's metrics, layer = internal/<pkg> name.
var perLayer = []metricDef{
	{Name: "ingest.offer_s", Unit: "s", Better: "lower"},
	{Name: "ingest.drain_s", Unit: "s", Better: "lower"},
	{Name: "ingest.poll_s", Unit: "s", Better: "lower"},
	{Name: "ingest.ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "ingest.offered", Unit: "count", Better: "higher"},
	{Name: "ingest.accepted", Unit: "count", Better: "higher"},
	{Name: "ingest.dropped", Unit: "count", Better: "lower"},
	{Name: "ingest.processed", Unit: "count", Better: "higher"},
	{Name: "ingest.prealerts", Unit: "count", Better: "higher"},
	{Name: "ingest.drain_cycles", Unit: "count", Better: "lower"},
	{Name: "ingest.queue_wait_p99_us", Unit: "us", Better: "lower"},

	{Name: "runtime.step_s", Unit: "s", Better: "lower"},
	{Name: "runtime.predict_s", Unit: "s", Better: "lower"},
	{Name: "runtime.flows_s", Unit: "s", Better: "lower"},
	{Name: "runtime.congestion_s", Unit: "s", Better: "lower"},
	{Name: "runtime.manage_s", Unit: "s", Better: "lower"},
	{Name: "runtime.manage_other_s", Unit: "s", Better: "lower"},
	{Name: "runtime.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "runtime.predict_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "runtime.predict_skew", Unit: "ratio", Better: "lower"},
	{Name: "runtime.server_alerts", Unit: "count", Better: "higher"},
	{Name: "runtime.tor_alerts", Unit: "count", Better: "higher"},
	{Name: "runtime.switch_alerts", Unit: "count", Better: "higher"},
	{Name: "runtime.deep_warnings", Unit: "count", Better: "higher"},
	{Name: "runtime.alert_periods", Unit: "count", Better: "higher"},
	{Name: "runtime.reroutes", Unit: "count", Better: "higher"},
	{Name: "runtime.hot_switches", Unit: "count", Better: "lower"},

	{Name: "migrate.shim_calls", Unit: "count", Better: "lower"},
	{Name: "migrate.shim_busy_s", Unit: "s", Better: "lower"},
	{Name: "migrate.shim_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "migrate.migrations", Unit: "count", Better: "higher"},
	{Name: "migrate.cost_total", Unit: "cost", Better: "lower"},
	{Name: "migrate.preemptions", Unit: "count", Better: "lower"},
	{Name: "migrate.requeued", Unit: "count", Better: "lower"},
	{Name: "migrate.placed_share", Unit: "share", Better: "higher"},
	{Name: "migrate.dist_busy_s", Unit: "s", Better: "lower"},
	{Name: "migrate.dist_rounds", Unit: "count", Better: "lower"},
	{Name: "migrate.requests", Unit: "count", Better: "lower"},
	{Name: "migrate.acks", Unit: "count", Better: "higher"},
	{Name: "migrate.rejects", Unit: "count", Better: "lower"},
	{Name: "migrate.retransmits", Unit: "count", Better: "lower"},
	{Name: "migrate.suppressed", Unit: "count", Better: "lower"},
	{Name: "migrate.fallbacks", Unit: "count", Better: "lower"},
	{Name: "migrate.unplaced", Unit: "count", Better: "lower"},
	{Name: "migrate.ack_share", Unit: "share", Better: "higher"},
	{Name: "migrate.search_space", Unit: "count", Better: "lower"},

	{Name: "comm.sent", Unit: "count", Better: "lower"},
	{Name: "comm.delivered", Unit: "count", Better: "higher"},
	{Name: "comm.dropped", Unit: "count", Better: "lower"},
	{Name: "comm.dup", Unit: "count", Better: "lower"},
	{Name: "comm.reordered", Unit: "count", Better: "lower"},
	{Name: "sim.build_s", Unit: "s", Better: "lower"},
	{Name: "sim.populate_s", Unit: "s", Better: "lower"},

	{Name: "snapshot.runtime_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.ingest_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.encode_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.write_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "bytes", Better: "lower"},
	{Name: "snapshot.count", Unit: "count", Better: "higher"},
	{Name: "snapshot.decode_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.restore_runtime_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.restore_ingest_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.tail_match", Unit: "bool", Better: "higher"},

	{Name: "predictor.deep_ready_racks", Unit: "count", Better: "higher"},
	{Name: "predictor.forecasts", Unit: "count", Better: "higher"},
	{Name: "predictor.deep_fit_period_ms", Unit: "ms", Better: "lower"},

	{Name: "cost.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.hot_scan_us", Unit: "us", Better: "lower"},
	{Name: "topology.sweep_ms", Unit: "ms", Better: "lower"},

	{Name: "heap.bytes_per_update", Unit: "bytes", Better: "lower"},
	{Name: "heap.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "heap.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "traces.gen_s", Unit: "s", Better: "lower"},
	{Name: "traces.ns_per_profile", Unit: "ns", Better: "lower"},
	{Name: "setup.build_s", Unit: "s", Better: "lower"},
	{Name: "setup.ingest_s", Unit: "s", Better: "lower"},
	{Name: "setup.sources_s", Unit: "s", Better: "lower"},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower"},
	{Name: "obs.events", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "process.cpu_ms_per_period", Unit: "ms", Better: "lower"},
	{Name: "host.speed_factor", Unit: "ratio", Better: "lower"},
	{Name: "host.period_p50_raw_ms", Unit: "ms", Better: "lower"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
