package main

// metricDef names one reported metric. BENCHMARK.json lists exactly these
// (TestBenchmarkJSON keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the median
}

const (
	lower  = "lower"
	higher = "higher"
)

// e2eMetrics are what a user of one edge server sees. Every workload
// reports every one of them, measured with all telemetry hooks nil.
var e2eMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"slots_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_kslot", "ms", lower, 0.25},
	{"allocs_per_slot", "count", lower, 0.20},
	{"ontime_frame_frac", "frac", higher, 0.05},
	{"delivery_ms_p50", "ms", lower, 0.25},
	{"quality_mean", "level", higher, 0.20},
	{"served_frac", "frac", higher, 0.02},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// walkMetrics come from the layer walk: one goroutine calling each layer's
// exported functions on sim_dense's inputs, one span per call.
var walkMetrics = []metricDef{
	{Name: "motion.predict_ns", Unit: "ns", Better: lower},
	{Name: "motion.covered_ns", Unit: "ns", Better: lower},
	{Name: "tiles.select_ns", Unit: "ns", Better: lower},
	{Name: "tiles.select_tiles", Unit: "count", Better: lower},
	{Name: "tiles.ratetable_ns", Unit: "ns", Better: lower},
	{Name: "tiles.admit_ns", Unit: "ns", Better: lower},
	{Name: "tiles.store_hit_ns", Unit: "ns", Better: lower},
	{Name: "tiles.store_miss_ns", Unit: "ns", Better: lower},
	{Name: "tiles.store_contended_ns", Unit: "ns", Better: lower},
	{Name: "tiles.store_hit_ratio", Unit: "frac", Better: higher},
	{Name: "tiles.clientram_ns", Unit: "ns", Better: lower},
	{Name: "netem.delaytable_ns", Unit: "ns", Better: lower},
	{Name: "netem.bucket_admit_ns", Unit: "ns", Better: lower},
	{Name: "estimate.polyfit_ns", Unit: "ns", Better: lower},
	{Name: "core.lower_ns", Unit: "ns", Better: lower},
	{Name: "core.allocate_ns", Unit: "ns", Better: lower},
	{Name: "core.allocate_self_ns", Unit: "ns", Better: lower},
	{Name: "knapsack.solve_n16_ns", Unit: "ns", Better: lower},
	{Name: "knapsack.solve_n4000_ns", Unit: "ns", Better: lower},
	{Name: "knapsack.solve_allocs", Unit: "count", Better: lower},
	{Name: "knapsack.upgrades_per_item", Unit: "count", Better: lower},
	{Name: "transport.fragment_ns", Unit: "ns", Better: lower},
	{Name: "transport.send_ns", Unit: "ns", Better: lower},
	{Name: "transport.send_batched_ns", Unit: "ns", Better: lower},
	{Name: "transport.decode_ns", Unit: "ns", Better: lower},
	{Name: "transport.reassemble_ns", Unit: "ns", Better: lower},
	{Name: "transport.reassemble_lossy_ns", Unit: "ns", Better: lower},
	{Name: "transport.control_ns", Unit: "ns", Better: lower},
	{Name: "transport.packets_per_slot", Unit: "count", Better: lower},
	{Name: "metrics.qoe_observe_ns", Unit: "ns", Better: lower},
	{Name: "obs.slo_observe_ns", Unit: "ns", Better: lower},
	{Name: "obs.breaker_ns", Unit: "ns", Better: lower},
	{Name: "obs.registry_inc_ns", Unit: "ns", Better: lower},
	{Name: "tsdb.sample_ns", Unit: "ns", Better: lower},
	{Name: "trace.span_ns", Unit: "ns", Better: lower},
	{Name: "trace.span_off_ns", Unit: "ns", Better: lower},
	{Name: "fleet.place_ns", Unit: "ns", Better: lower},
	{Name: "fleet.rebalance_ns", Unit: "ns", Better: lower},
	{Name: "fleet.evac_update_ns", Unit: "ns", Better: lower},
	{Name: "coord.propose_r1_ns", Unit: "ns", Better: lower},
	{Name: "coord.propose_r3_ns", Unit: "ns", Better: lower},
	{Name: "coord.propose_r1_allocs", Unit: "count", Better: lower},
	{Name: "coord.tick_ns", Unit: "ns", Better: lower},
	{Name: "load.generate_us", Unit: "us", Better: lower},
	{Name: "load.session_setup_us", Unit: "us", Better: lower},
	{Name: "chaos.advance_ns", Unit: "ns", Better: lower},
}

// tracedMetrics come from a traced run: the workload itself with the
// program's existing seams switched on. A layer the workload never enters
// reports 0 (the server.*, client.*, netem.* and trace.*_ms rows on the two
// sim workloads; the fleet.* and coord.* rows everywhere but fleet_churn).
var tracedMetrics = []metricDef{
	{Name: "core.solve_insitu_ns", Unit: "ns", Better: lower},
	{Name: "core.solve_share", Unit: "frac", Better: lower},
	{Name: "trace.overhead_frac", Unit: "frac", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: lower},
	{Name: "load.peak_concurrent", Unit: "count", Better: higher},
	{Name: "load.sessions_spawned", Unit: "count", Better: higher},

	{Name: "server.slot_decide_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.slot_decide_ms_p99", Unit: "ms", Better: lower},
	{Name: "server.slot_overrun_frac", Unit: "frac", Better: lower},
	{Name: "server.tiles_per_slot", Unit: "count", Better: lower},
	{Name: "server.suppressed_frac", Unit: "frac", Better: higher},
	{Name: "server.retransmit_frac", Unit: "frac", Better: lower},
	{Name: "server.retry_abandoned", Unit: "count", Better: lower},
	{Name: "server.store_hit_ratio", Unit: "frac", Better: higher},
	{Name: "server.tx_bytes_per_slot", Unit: "count", Better: lower},
	{Name: "server.tx_dropped_frac", Unit: "frac", Better: lower},
	{Name: "server.cap_est_err_p50", Unit: "frac", Better: lower},
	{Name: "netem.pacing_wait_ms_per_kslot", Unit: "ms", Better: lower},
	{Name: "client.slot_delay_ms_p50", Unit: "ms", Better: lower},
	{Name: "client.slot_delay_ms_p99", Unit: "ms", Better: lower},
	{Name: "client.setup_ms_p50", Unit: "ms", Better: lower},
	{Name: "client.rx_incomplete_frac", Unit: "frac", Better: lower},
	{Name: "client.rx_duplicate_frac", Unit: "frac", Better: lower},
	{Name: "client.nack_tiles_per_kslot", Unit: "count", Better: lower},
	{Name: "client.coverage_frac", Unit: "frac", Better: higher},
	{Name: "client.quality_mean", Unit: "level", Better: higher},
	{Name: "client.qoe_mean", Unit: "qoe", Better: higher},
	{Name: "trace.decide_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.admit_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.fetch_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.send_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.send_ms_p99", Unit: "ms", Better: lower},
	{Name: "trace.retry_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.ack_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.recv_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.decode_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.display_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.e2e_ms_p50", Unit: "ms", Better: lower},
	{Name: "trace.e2e_ms_p99", Unit: "ms", Better: lower},
	{Name: "trace.spans_dropped", Unit: "count", Better: lower},

	{Name: "fleet.placements", Unit: "count", Better: higher},
	{Name: "fleet.placements_failed", Unit: "count", Better: lower},
	{Name: "fleet.migrations", Unit: "count", Better: lower},
	{Name: "fleet.rebalances", Unit: "count", Better: lower},
	{Name: "fleet.outage_slots", Unit: "count", Better: lower},
	{Name: "fleet.evacuations", Unit: "count", Better: lower},
	{Name: "coord.commits", Unit: "count", Better: higher},
	{Name: "coord.rejected", Unit: "count", Better: lower},
	{Name: "coord.elections", Unit: "count", Better: lower},
	{Name: "coord.leaderless_slots", Unit: "count", Better: lower},
	{Name: "obs.slo_page_transitions", Unit: "count", Better: lower},
	{Name: "obs.breaker_degraded_slots", Unit: "count", Better: lower},
}

// layerMetrics is the per-layer list in reporting order.
func layerMetrics() []metricDef {
	return append(append([]metricDef(nil), walkMetrics...), tracedMetrics...)
}
