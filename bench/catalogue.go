package main

// The catalogue is the benchmark's contract in code: every metric it
// prints, with its unit, direction and — for end-to-end metrics — the
// bound by which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root lists the same names; the smoke
// test keeps the two in step.

// endToEnd is one metric a user of the system would see. Every workload
// reports every one of them, on its own operation and unit of work.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEndMetrics = []endToEnd{
	// Work completed per second of the timed region: training samples
	// (live_train, sim_fleet), uploads assimilated (assim_storm),
	// closed-loop request+upload operations (sched_open).
	{"work_per_s", "1/s", "higher", 0.25},
	// Median client-observed latency of the workload's operation: subtask
	// cycle (live_train), Upload round trip (assim_storm), wall time per
	// ten consecutive closed-loop request+upload operations (sched_open) or
	// canonical assimilations (sim_fleet).
	{"op_p50_ms", "ms", "lower", 0.25},
	// Time to build corpus, model, server and backlog before the timed
	// region: the fastest of the run's repeated set-ups.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one metric of a single layer (a package of this
// repository). Source is how it is taken: probe (N timed calls of the
// public function on the workload's shapes), span (traced pass, around
// the benchmark's own call into the layer) or count (public accessor
// after the pass). README.md says, per layer, which end-to-end metric on
// which workload a gain should show in — the prediction later changes
// are held to.
type perLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"-"`
	Source string `json:"-"`
}

const (
	lo = "lower"
	hi = "higher"
)

var perLayerMetrics = []perLayer{
	{"tensor.matmul_gflops", "GFLOP/s", hi, "tensor", "probe"},
	{"tensor.matmul_transa_gflops", "GFLOP/s", hi, "tensor", "probe"},
	{"tensor.matmul_transb_gflops", "GFLOP/s", hi, "tensor", "probe"},
	{"tensor.im2col_us", "us", lo, "tensor", "probe"},
	{"tensor.kernel_allocs_op", "count", lo, "tensor", "probe"},
	{"nn.train_batch_ms", "ms", lo, "nn", "probe"},
	{"nn.eval_batch_ms", "ms", lo, "nn", "probe"},
	{"nn.new_network_us", "us", lo, "nn", "probe"},
	{"opt.adam_step_us", "us", lo, "opt", "probe"},
	{"data.decode_shard_us", "us", lo, "data", "probe"},
	{"data.generate_s", "s", lo, "data", "probe"},
	{"core.executor.subtask_ms", "ms", lo, "core", "probe"},
	{"core.executor.allocs_op", "count", lo, "core", "probe"},
	{"core.evaluator.accuracy_ms", "ms", lo, "core", "probe"},
	{"core.app.run_ms", "ms", lo, "core", "span"},
	{"core.backend.wait_s", "s", lo, "core", "span"},
	{"core.backend.cache_hit_ratio", "ratio", hi, "core", "count"},
	{"core.backend.computed", "count", lo, "core", "count"},
	{"core.distributed.epoch_turnover_ms", "ms", lo, "core", "span"},
	{"core.distributed.time_to_target_s", "s", lo, "core", "count"},
	{"core.distributed.final_accuracy", "ratio", hi, "core", "count"},
	{"wire.encode_ms", "ms", lo, "wire", "probe"},
	{"wire.decode_ms", "ms", lo, "wire", "probe"},
	{"wire.encoded_bytes", "bytes", lo, "wire", "probe"},
	{"ps.assimilate_ms", "ms", lo, "ps", "probe"},
	{"ps.current_ms", "ms", lo, "ps", "probe"},
	{"ps.assimilations", "count", hi, "ps", "count"},
	{"store.update_us", "us", lo, "store", "probe"},
	{"store.bytes_written", "bytes", lo, "store", "count"},
	{"store.lost_updates", "count", lo, "store", "count"},
	{"boinc.scheduler.request_work_us_d50", "us", lo, "boinc scheduler", "probe"},
	{"boinc.scheduler.request_work_us_d20k", "us", lo, "boinc scheduler", "probe"},
	{"boinc.scheduler.complete_result_us_d20k", "us", lo, "boinc scheduler", "probe"},
	{"boinc.scheduler.add_workunit_us_d20k", "us", lo, "boinc scheduler", "probe"},
	{"boinc.scheduler.expire_timeouts_us_d20k", "us", lo, "boinc scheduler", "probe"},
	{"boinc.scheduler.request_allocs_op", "count", lo, "boinc scheduler", "probe"},
	{"boinc.scheduler.retained_bytes_per_wu", "bytes", lo, "boinc scheduler", "probe"},
	{"boinc.scheduler.issued", "count", lo, "boinc scheduler", "count"},
	{"boinc.scheduler.timeouts", "count", lo, "boinc scheduler", "count"},
	{"boinc.scheduler.reissued", "count", lo, "boinc scheduler", "count"},
	{"boinc.server.scheduler_handler_ms_p50", "ms", lo, "boinc server", "span"},
	{"boinc.server.upload_handler_ms_p50", "ms", lo, "boinc server", "span"},
	{"boinc.server.download_handler_ms_p50", "ms", lo, "boinc server", "span"},
	{"boinc.server.busy_share", "ratio", lo, "boinc server", "span"},
	{"boinc.server.http_overhead_ms", "ms", lo, "boinc server", "span"},
	{"boinc.server.bytes_up", "bytes", lo, "boinc server", "count"},
	{"boinc.server.bytes_down", "bytes", lo, "boinc server", "count"},
	{"boinc.server.shed", "count", lo, "boinc server", "count"},
	{"boinc.server.rpc_p99_ms", "ms", lo, "boinc server", "span"},
	{"boinc.server.max_rate_ops_s", "1/s", hi, "boinc server", "span"},
	{"boinc.client.request_ms_p50", "ms", lo, "boinc client", "span"},
	{"boinc.client.upload_ms_p50", "ms", lo, "boinc client", "span"},
	{"boinc.client.download_ms_p50", "ms", lo, "boinc client", "span"},
	{"boinc.client.compute_share", "ratio", hi, "boinc client", "span"},
	{"boinc.client.idle_share", "ratio", lo, "boinc client", "span"},
	{"boinc.client.cache_hit_ratio", "ratio", hi, "boinc client", "count"},
	{"sim.engine.events_per_s", "1/s", hi, "sim", "probe"},
	{"vcsim.self_s", "s", lo, "vcsim", "span"},
	{"vcsim.virtual_hours", "h", lo, "vcsim", "count"},
	{"vcsim.wall_s_per_virtual_hour", "s/h", lo, "vcsim", "count"},
	{"vcsim.assimilations", "count", hi, "vcsim", "count"},
	{"obs.histogram_observe_ns", "ns", lo, "obs", "probe"},
	{"obs.counter_inc_ns", "ns", lo, "obs", "probe"},
	{"runtime.heap_end_mb", "MB", lo, "process", "count"},
	{"runtime.gc_pause_total_ms", "ms", lo, "process", "count"},
	{"runtime.mallocs_per_op", "count", lo, "process", "count"},
	{"runtime.budget_accounted_pct", "%", hi, "process", "span"},
	{"loadgen.op_p90_ms", "ms", lo, "generator", "span"},
	{"loadgen.open_p50_ms", "ms", lo, "generator", "span"},
	{"loadgen.open_p90_ms", "ms", lo, "generator", "span"},
	{"loadgen.max_late_ms", "ms", lo, "generator", "span"},
	{"loadgen.achieved_share", "ratio", hi, "generator", "span"},
	{"loadgen.trace_overhead_pct", "%", lo, "generator", "span"},
}
