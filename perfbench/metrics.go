package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run. Every workload
// reports every one of them; README.md defines each per workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"dies_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// perLayerDefs are the metrics of a traced run. Every workload reports
// every one of them; a layer the workload does not exercise reads 0.
var perLayerDefs = []metricDef{
	// The trace itself.
	{"trace.uncovered_share", "ratio"},
	{"trace.overhead_pct", "%"},
	// core stages: self time summed over dies.
	{"core.device_s", "s"},
	{"core.calibrate_s", "s"},
	{"core.adaptive_s", "s"},
	{"core.pairs_s", "s"},
	{"core.confirm_s", "s"},
	{"core.delay_s", "s"},
	// Work counts and ratios.
	{"core.adaptive_steps", "count"},
	{"core.pairs_analyzed", "count"},
	{"device.readings.adaptive", "count"},
	{"device.readings.pairs", "count"},
	{"core.adaptive_us_per_reading", "us"},
	{"core.pairs_us_per_reading", "us"},
	{"device.raw_per_reading", "ratio"},
	{"device.retries", "count"},
	{"device.unstable", "count"},
	// Heap allocation per stage.
	{"go.alloc_mb.calibrate", "MiB"},
	{"go.alloc_mb.adaptive", "MiB"},
	{"go.alloc_mb.pairs", "MiB"},
	{"go.alloc_mb.confirm", "MiB"},
	{"go.alloc_mb.delay", "MiB"},
	// Kernel probes.
	{"scan.sweep_chunk_us", "us"},
	{"core.measure_batch_us", "us"},
	{"power.price_us", "us"},
	// Set-up layers.
	{"trust.build_s", "s"},
	{"atpg.generate_s", "s"},
	{"fusion.train_s", "s"},
	{"bench.emit_s", "s"},
	{"bench.parse_s", "s"},
	{"netlist.soa_s", "s"},
	// Verdict quality of the lot.
	{"fusion.power_auc", "ratio"},
	{"fusion.fused_auc", "ratio"},
	// Serving layers.
	{"service.submit_ms", "ms"},
	{"cluster.dispatch_ms", "ms"},
	{"worker.run_p50_ms", "ms"},
	{"worker.run_p90_ms", "ms"},
	{"cluster.forward_p50_ms", "ms"},
	{"cluster.forward_p90_ms", "ms"},
	{"service.fetch_ms", "ms"},
	{"serve.generator_lag_ms", "ms"},
	{"cluster.dispatches", "count"},
	{"cluster.steals", "count"},
	{"cluster.dispatch_rejected", "count"},
	{"service.jobs_throttled", "count"},
	{"service.cache_hit_ratio", "ratio"},
}

// perLayer attaches units to a traced run's values and fills every
// per-layer metric the run did not measure with 0.
func perLayer(vals map[string]float64) map[string]metric {
	return withUnits(perLayerDefs, vals)
}

// withUnits reports every defined metric with its unit; a value missing
// from vals reads 0.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}
