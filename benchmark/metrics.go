package main

// metricDef is one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; benchmark_test.go keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Moves names, for a per-layer metric, the end-to-end metrics it
	// should move and on which workload ("metric@workload"), written
	// down before any change is measured against it.
	Moves []string
}

// endToEnd are the metrics a user of the simulator or the service
// sees. Every workload reports every one; README.md gives each
// workload's definition of a "job". The job latency tail is reported
// per layer (experiment, serve, cluster): on a shared host it does not
// repeat within any bound this benchmark may set.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "sim_mrefs_per_s", Unit: "Mref/s", Better: "higher"},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower"},
}

// layers are the modules the per-layer metrics belong to: the repo's
// packages, plus runtime (the Go runtime) and loadgen (the benchmark's
// own load generator, whose lateness says whether a serving run is
// valid at all).
var layers = []string{
	"workload", "tracestore", "sim", "cache", "core", "predictor", "prefetch",
	"simstate", "experiment", "serve", "cluster", "runtime", "loadgen",
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"workload.gen_ns_per_ref", "ns", "lower", []string{"job_p50_ms@serve"}},
	{"tracestore.materialize_ms", "ms", "lower", []string{"job_p50_ms@serve"}},
	{"tracestore.materializations", "count", "lower", []string{"job_p50_ms@serve"}},
	{"tracestore.hit_rate", "ratio", "higher", []string{"job_p50_ms@cluster", "sim_mrefs_per_s@figs"}},
	{"tracestore.resident_mib", "MiB", "lower", []string{"peak_rss_mib@figs", "peak_rss_mib@sweep"}},
	{"sim.simulate_ns_per_ref", "ns", "lower", []string{"sim_mrefs_per_s@figs", "sim_mrefs_per_s@sweep", "job_p50_ms@serve"}},
	{"sim.front_ns_per_ref", "ns", "lower", []string{"sim_mrefs_per_s@sweep"}},
	{"sim.restore_ms", "ms", "lower", []string{"sim_mrefs_per_s@sweep"}},
	{"sim.alloc_bytes_per_ref", "bytes", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"sim.refs", "count", "higher", []string{"sim_mrefs_per_s@figs", "sim_mrefs_per_s@sweep"}},
	{"sim.mem_fetches_per_kref", "count", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"cache.l1_miss_rate", "ratio", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"cache.lower_lookups_per_ref", "count", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"cache.l4_hit_rate", "ratio", "higher", []string{"sim_mrefs_per_s@figs"}},
	{"predictor.skip_frac", "ratio", "higher", []string{"sim_mrefs_per_s@figs"}},
	{"predictor.fp_frac", "ratio", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"predictor.false_negatives", "count", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"core.recalibrations", "count", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"prefetch.issued_per_kref", "count", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"simstate.blob_kib", "KiB", "lower", []string{"peak_rss_mib@sweep", "sim_mrefs_per_s@sweep"}},
	{"simstate.hit_rate", "ratio", "higher", []string{"sim_mrefs_per_s@sweep"}},
	{"simstate.decode_ms", "ms", "lower", []string{"sim_mrefs_per_s@sweep"}},
	{"experiment.job_p95_ms", "ms", "lower", []string{"sim_mrefs_per_s@figs", "sim_mrefs_per_s@sweep"}},
	{"experiment.pool_idle_frac", "ratio", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"experiment.runs", "count", "lower", []string{"sim_mrefs_per_s@figs"}},
	{"serve.job_p95_ms", "ms", "lower", []string{"job_p50_ms@serve"}},
	{"serve.queue_wait_p50_ms", "ms", "lower", []string{"job_p50_ms@serve", "job_p50_ms@cluster"}},
	{"serve.queue_wait_p95_ms", "ms", "lower", []string{"job_p50_ms@serve", "job_p50_ms@cluster"}},
	{"serve.run_p50_ms", "ms", "lower", []string{"job_p50_ms@serve", "job_p50_ms@cluster", "sim_mrefs_per_s@serve"}},
	{"serve.run_p95_ms", "ms", "lower", []string{"job_p50_ms@serve"}},
	{"serve.submit_p50_ms", "ms", "lower", []string{"job_p50_ms@serve"}},
	{"serve.submit_p95_ms", "ms", "lower", []string{"job_p50_ms@serve"}},
	{"serve.read_p95_ms", "ms", "lower", []string{"job_p50_ms@serve"}},
	{"serve.jobs_per_s", "1/s", "higher", []string{"sim_mrefs_per_s@serve"}},
	{"serve.rejected_frac", "ratio", "lower", []string{"job_p50_ms@serve"}},
	{"serve.dedup_frac", "ratio", "higher", []string{"job_p50_ms@serve"}},
	{"cluster.job_p95_ms", "ms", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.submit_p95_ms", "ms", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.submit_created_p50_ms", "ms", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.submit_dedup_p50_ms", "ms", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.read_p95_ms", "ms", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.mirror_lag_p50_ms", "ms", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.mirror_lag_p95_ms", "ms", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.jobs_per_s", "1/s", "higher", []string{"sim_mrefs_per_s@cluster"}},
	{"cluster.dedup_frac", "ratio", "higher", []string{"job_p50_ms@cluster"}},
	{"cluster.placement_spread", "ratio", "lower", []string{"job_p50_ms@cluster"}},
	{"cluster.rehomes", "count", "lower", []string{"job_p50_ms@cluster"}},
	{"runtime.alloc_mib_per_s", "MiB/s", "lower", []string{"sim_mrefs_per_s@figs", "job_p50_ms@serve"}},
	{"runtime.gc_cpu_frac", "ratio", "lower", []string{"sim_mrefs_per_s@figs", "job_p50_ms@serve"}},
	{"runtime.goroutines_peak", "count", "lower", []string{"peak_rss_mib@cluster"}},
	{"loadgen.late_p95_ms", "ms", "lower", []string{"job_p50_ms@serve", "job_p50_ms@cluster"}},
}
