package main

// metricDef declares a metric the benchmark emits. BENCHMARK.json at the
// repository root carries the same names, units and directions (a test
// keeps the two in step) plus the regression bound of each end-to-end
// metric.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the system waits for or pays. Every
// workload reports every one of them, measured with tracing off; the
// workload's op (round, cell, accepted update) gives them their meaning.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// perLayerMetrics come from the traced phase. A metric whose layer a
// workload does not run reads 0 there.
var perLayerMetrics = []metricDef{
	// fl stages (sim_paper, sim_wide).
	{"fl.participation_ms_per_round", "ms"},
	{"fl.local_ms_per_round", "ms"},
	{"fl.adversary_ms_per_round", "ms"},
	{"fl.codec_encode_ms_per_round", "ms"},
	{"fl.codec_decode_ms_per_round", "ms"},
	{"fl.defense_ms_per_round", "ms"},
	{"fl.update_ms_per_round", "ms"},
	{"fl.step_self_ms_per_round", "ms"},
	{"fl.local_clients_per_s", "1/s"},
	{"fl.local_alloc_mb_per_round", "MB"},
	{"fl.defense_alloc_mb_per_round", "MB"},
	{"fl.step_alloc_mb_per_round", "MB"},
	{"fl.wire_bytes_per_round", "B"},
	{"fl.defense_honest_kept_share", "share"},
	{"fl.defense_byz_kept_share", "share"},
	{"nn.lossgrad_us_per_example", "us"},
	{"data.generate_s", "s"},
	{"fl.new_s", "s"},
	// campaign (campaign_grid).
	{"campaign.cell_ms_p50", "ms"},
	{"campaign.cell_ms_max", "ms"},
	{"campaign.pool_idle_share", "share"},
	{"campaign.store_put_ms_per_cell", "ms"},
	{"campaign.warm_cells_per_s", "1/s"},
	{"campaign.key_us_per_cell", "us"},
	{"campaign.store_get_ms_per_cell", "ms"},
	{"campaign.store_open_ms", "ms"},
	{"campaign.cache_hit_share", "share"},
	// transport, asyncfl, codec and sanitize (serve_mixed).
	{"transport.handler_us_p50", "us"},
	{"transport.handler_us_p99", "us"},
	{"transport.client_overhead_us_p50", "us"},
	{"transport.model_fetch_us_p50", "us"},
	{"transport.ingest_bytes_per_update", "B"},
	{"asyncfl.submit_us_p50", "us"},
	{"asyncfl.step_ms_p50", "ms"},
	{"asyncfl.defense_ms_per_step", "ms"},
	{"asyncfl.defense_kept_share", "share"},
	{"asyncfl.mean_occupancy", "count"},
	{"asyncfl.mean_staleness", "count"},
	{"asyncfl.steps", "count"},
	{"asyncfl.rejects", "count"},
	{"asyncfl.nonfinite_rejects", "count"},
	{"codec.encode_us_per_update", "us"},
	{"codec.decode_us_per_update", "us"},
	{"sanitize.screen_us_per_update", "us"},
	// the benchmark itself.
	{"bench.trace_overhead_share", "share"},
}
