package main

// metricDef is one reported metric with its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of vani sees, reported by every
// workload with the workload's own unit of work (see NOTES.md):
//
//	file-report     work = trace events characterized,  op = one trace file to YAML
//	service-whatif  work = requests answered,            op = one request
//	fleet-ingest    work = traces stored+characterized,  op = one fleet query
//	sweep-fig7      work = grid points run,              op = one whole sweep
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"rss_p90_mb", "MB"},
}

// paperWorkloads are the six exemplar generators, in corpus order.
var paperWorkloads = []string{"cm1", "hacc", "cosmoflow", "jag", "montage-mpi", "montage-pegasus"}

// perLayer are the traced run's metrics, named after the modules. Every
// workload reports all of them; a layer the workload does not exercise
// reports 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"trace.open_ms", "ms"},
		{"colstore.scan_ms", "ms"},
		{"colstore.decoded_bytes_per_event", "B/event"},
		{"colstore.kernels_served_frac", "frac"},
		{"colstore.group_served_frac", "frac"},
		{"colstore.tl_served_frac", "frac"},
		{"core.analyze_ms", "ms"},
		{"core.analyze_seq_ms", "ms"},
		{"core.par_speedup", "x"},
		{"core.alloc_bytes_per_event", "B/event"},
	}
	for _, w := range paperWorkloads {
		ms = append(ms, metricDef{"core.analyze_ms." + w, "ms"})
	}
	ms = append(ms, []metricDef{
		{"core.analyze_seq_ms.montage-mpi", "ms"},
		{"yamlenc.marshal_ms", "ms"},
		{"yamlenc.bytes", "B"},
		{"server.block_cache_hit_frac", "frac"},
		{"server.decoded_bytes_per_req", "B"},
		{"server.report_cache_hit_frac", "frac"},
		{"server.rows_kept_frac", "frac"},
		{"server.blocks_pruned_frac", "frac"},
		{"server.group_filtered_served_frac", "frac"},
		{"server.runisect_served_frac", "frac"},
		{"server.jobs_rejected", "count"},
		{"server.block_cache_mb", "MB"},
		{"server.vmhwm_mb", "MB"},
		{"repo.add_ms", "ms"},
		{"repo.compact_ms", "ms"},
		{"repo.space_amp", "x"},
		{"repo.fleet_char_ms", "ms"},
		{"repo.fleet_self_ms", "ms"},
		{"sim.events_per_s", "1/s"},
		{"spec.point_ms", "ms"},
		{"replay.tune_ms", "ms"},
		{"advisor.advise_ms", "ms"},
		{"colstore.scan_ms.filtered", "ms"},
		{"core.analyze_ms.filtered", "ms"},
		{"bench.trace_overhead_frac", "frac"},
		{"bench.slowness", "x"},
		{"bench.samples", "count"},
	}...)
	return ms
}()
