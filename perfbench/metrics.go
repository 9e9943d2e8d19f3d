package main

// endToEnd lists the metrics of an untraced run, with their units, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"repro_s", "s"},
	{"peak_heap_mb", "MB"},
	{"knee_hz", "1/s"},
	{"overload_goodput_hz", "1/s"},
	{"live_job_s", "s"},
}

// perLayer lists the metrics of a traced run, with their units, in
// BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"done_p50_ms", "ms"},
	{"done_p99_ms", "ms"},
	{"overload_reject_p99_ms", "ms"},
	{"experiment.spec_ms.table1", "ms"},
	{"experiment.spec_ms.fig2", "ms"},
	{"experiment.spec_ms.fig3", "ms"},
	{"experiment.spec_ms.fig4", "ms"},
	{"experiment.spec_ms.casestudy", "ms"},
	{"experiment.spec_ms.failures", "ms"},
	{"experiment.spec_ms.redistrib", "ms"},
	{"parallel.speedup", "x"},
	{"engine.runs", "count"},
	{"engine.chunks_per_run", "count"},
	{"engine.self_us_per_run", "us"},
	{"engine.allocs_per_run", "count"},
	{"dls.calls_per_run", "count"},
	{"dls.self_us_per_run", "us"},
	{"grid.ops_per_run", "count"},
	{"grid.self_us_per_run", "us"},
	{"grid.reset_us", "us"},
	{"transport.rtt_us.p50", "us"},
	{"transport.rtt_us.p99", "us"},
	{"transport.codec_ns.submit", "ns"},
	{"transport.codec_ns.job", "ns"},
	{"transport.frames_per_job", "count"},
	{"transport.bytes_per_job", "bytes"},
	{"client.submit_us.p50", "us"},
	{"client.submit_us.p99", "us"},
	{"daemon.accept_us", "us"},
	{"daemon.reject_us", "us"},
	{"daemon.queue_ms.p50", "ms"},
	{"daemon.queue_ms.p99", "ms"},
	{"daemon.run_ms.p50", "ms"},
	{"daemon.accept_ratio", "ratio"},
	{"daemon.stage_us.decode", "us"},
	{"daemon.stage_us.admission", "us"},
	{"daemon.stage_us.queue", "us"},
	{"daemon.stage_us.lease", "us"},
	{"daemon.stage_us.execute", "us"},
	{"spec.parse_us.s4", "us"},
	{"spec.parse_us.s8", "us"},
	{"spec.parse_us.s12", "us"},
	{"spec.parse_us.s16", "us"},
	{"spec.parse_us.live", "us"},
	{"live.store_mb_per_s", "MB/s"},
	{"live.compute_us_per_unit", "us"},
	{"live.fetch_us", "us"},
	{"live.chunks_per_job", "count"},
	{"obs.emit_ns", "ns"},
	{"obs.trace_overhead_pct", "%"},
}

// metricUnits maps every metric name to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, e := range l {
			m[e.name] = e.unit
		}
	}
	return m
}()
