package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (the self-test holds the
// two in step); Bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression.
//
// For a per-layer metric, Layer names the module it measures and Moves the
// end-to-end metric(s) and workload(s) a change to that layer should move —
// the prediction a performance change states before it is measured.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// endToEnd are the metrics a user of the service sees, reported per
// workload from the untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "done_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "done_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "done_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "best_cost_mean", Unit: "cost", Better: "lower", Bound: 0.05},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// Where each layer is heavy, as the Moves annotations abbreviate it.
const (
	onGrids = "paper-grid, fleet-grid"
	onSmall = "small-jobs"
	onFleet = "fleet-grid"
	onAll   = "all workloads"
)

// perLayer are the traced run's metrics. Counts that only guard behaviour
// (moves per job, acceptance, records per job) carry a nominal direction:
// any change in them is a change in what the program does.
var perLayer = []metricDef{
	// Kernels: linear arrangement (gap tree) and max-cut flip.
	{Name: "linarr.eval_ns", Unit: "ns", Better: "lower", Layer: "linarr", Moves: "cpu_ms_per_job, jobs_per_s, done_p50_ms on " + onGrids},
	{Name: "linarr.apply_ns", Unit: "ns", Better: "lower", Layer: "linarr", Moves: "cpu_ms_per_job, jobs_per_s on " + onGrids},
	{Name: "linarr.batch_eval_ns", Unit: "ns", Better: "lower", Layer: "linarr", Moves: "cpu_ms_per_job on " + onGrids},
	{Name: "linarr.descend_eval_ns", Unit: "ns", Better: "lower", Layer: "linarr", Moves: "cpu_ms_per_job on " + onGrids},
	{Name: "maxcut.flip_eval_ns", Unit: "ns", Better: "lower", Layer: "maxcut", Moves: "cpu_ms_per_job on " + onSmall},
	{Name: "maxcut.flip_apply_ns", Unit: "ns", Better: "lower", Layer: "maxcut", Moves: "cpu_ms_per_job on " + onSmall},
	// Engine.
	{Name: "core.fig1_moves_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "cpu_ms_per_job, done_p50_ms on " + onGrids},
	{Name: "core.fig2_moves_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "cpu_ms_per_job, done_p50_ms on " + onGrids},
	{Name: "core.tempering_moves_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "cpu_ms_per_job, done_p50_ms on " + onGrids},
	{Name: "core.moves_per_job", Unit: "count", Better: "higher", Layer: "core", Moves: "best_cost_mean on " + onAll},
	{Name: "core.accept_ratio", Unit: "ratio", Better: "higher", Layer: "core", Moves: "best_cost_mean on " + onAll},
	{Name: "core.exchange_accept_ratio", Unit: "ratio", Better: "higher", Layer: "core", Moves: "best_cost_mean on " + onGrids},
	// Replica.
	{Name: "problem.compile_us", Unit: "us", Better: "lower", Layer: "problem", Moves: "cpu_ms_per_job on " + onSmall},
	{Name: "service.replica_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "cpu_ms_per_job, done_p50_ms on " + onSmall + ", paper-grid"},
	// Wall time, so it includes waiting for a CPU under load: hook tee plus contention.
	{Name: "service.replica_overhead_share", Unit: "ratio", Better: "lower", Layer: "service", Moves: "cpu_ms_per_job on " + onSmall},
	// Durability.
	{Name: "checkpoint.open_us", Unit: "us", Better: "lower", Layer: "checkpoint", Moves: "done_p50_ms, jobs_per_s on " + onSmall},
	{Name: "checkpoint.append_p50_us", Unit: "us", Better: "lower", Layer: "checkpoint", Moves: "done_p50_ms, jobs_per_s on " + onSmall},
	{Name: "checkpoint.append_p99_us", Unit: "us", Better: "lower", Layer: "checkpoint", Moves: "done_p99_ms on " + onSmall},
	{Name: "atomicio.write_p50_us", Unit: "us", Better: "lower", Layer: "atomicio", Moves: "done_p50_ms, jobs_per_s on " + onSmall},
	{Name: "atomicio.write_p99_us", Unit: "us", Better: "lower", Layer: "atomicio", Moves: "done_p99_ms on " + onSmall},
	{Name: "archive.append_p50_us", Unit: "us", Better: "lower", Layer: "archive", Moves: "jobs_per_s, cpu_ms_per_job on " + onSmall},
	{Name: "archive.records_per_job", Unit: "count", Better: "lower", Layer: "archive", Moves: "jobs_per_s on " + onSmall},
	{Name: "io.write_bytes_per_job", Unit: "bytes", Better: "lower", Layer: "durability", Moves: "done_p50_ms, jobs_per_s on " + onSmall},
	{Name: "io.write_calls_per_job", Unit: "count", Better: "lower", Layer: "durability", Moves: "cpu_ms_per_job, jobs_per_s on " + onSmall},
	// Service: HTTP, queue, stream.
	{Name: "service.submit_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p50_ms on " + onSmall},
	{Name: "service.submit_p99_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p99_ms on " + onSmall},
	{Name: "service.first_event_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p50_ms on " + onSmall},
	{Name: "service.result_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "jobs_per_s on " + onSmall},
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p90_ms on " + onGrids},
	{Name: "service.queue_wait_p90_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p90_ms on " + onGrids},
	{Name: "service.run_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p50_ms on " + onAll},
	{Name: "service.commit_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p50_ms on " + onSmall},
	{Name: "service.self_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: "done_p50_ms on " + onSmall},
	{Name: "service.stream_records_per_job", Unit: "count", Better: "lower", Layer: "service", Moves: "cpu_ms_per_job on " + onSmall},
	{Name: "service.requests_per_job", Unit: "count", Better: "lower", Layer: "service", Moves: "cpu_ms_per_job on " + onAll},
	{Name: "service.rejected", Unit: "count", Better: "lower", Layer: "service", Moves: "jobs_per_s on " + onAll},
	{Name: "service.retried", Unit: "count", Better: "lower", Layer: "service", Moves: "done_p99_ms on " + onAll},
	// Fleet: runner client and lease table.
	{Name: "runnerclient.acquire_p50_ms", Unit: "ms", Better: "lower", Layer: "runnerclient", Moves: "done_p90_ms, jobs_per_s on " + onFleet},
	{Name: "runnerclient.renew_p50_ms", Unit: "ms", Better: "lower", Layer: "runnerclient", Moves: "done_p90_ms on " + onFleet},
	{Name: "runnerclient.commit_p50_ms", Unit: "ms", Better: "lower", Layer: "runnerclient", Moves: "done_p90_ms, jobs_per_s on " + onFleet},
	{Name: "runnerclient.commit_p99_ms", Unit: "ms", Better: "lower", Layer: "runnerclient", Moves: "done_p99_ms on " + onFleet},
	{Name: "runnerclient.compute_p50_ms", Unit: "ms", Better: "lower", Layer: "runnerclient", Moves: "cpu_ms_per_job, done_p90_ms on " + onFleet},
	{Name: "runnerclient.idle_polls_per_job", Unit: "count", Better: "lower", Layer: "runnerclient", Moves: "jobs_per_s on " + onFleet},
	{Name: "runnerclient.retried", Unit: "count", Better: "lower", Layer: "runnerclient", Moves: "done_p90_ms on " + onFleet},
	{Name: "lease.grants_per_job", Unit: "count", Better: "lower", Layer: "lease", Moves: "cpu_ms_per_job on " + onFleet},
	{Name: "lease.stolen_per_job", Unit: "count", Better: "lower", Layer: "lease", Moves: "cpu_ms_per_job on " + onFleet},
	{Name: "lease.expired", Unit: "count", Better: "lower", Layer: "lease", Moves: "done_p99_ms on " + onFleet},
	{Name: "lease.commit_conflicts", Unit: "count", Better: "lower", Layer: "lease", Moves: "cpu_ms_per_job on " + onFleet},
	{Name: "lease.useful_acquire_ratio", Unit: "ratio", Better: "higher", Layer: "lease", Moves: "jobs_per_s on " + onFleet},
	// Go runtime and host.
	{Name: "go.alloc_bytes_per_job", Unit: "bytes", Better: "lower", Layer: "runtime", Moves: "cpu_ms_per_job, max_rss_mb on " + onSmall},
	{Name: "go.allocs_per_job", Unit: "count", Better: "lower", Layer: "runtime", Moves: "cpu_ms_per_job on " + onSmall},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower", Layer: "runtime", Moves: "cpu_ms_per_job on " + onSmall},
	{Name: "process.cpu_util", Unit: "ratio", Better: "higher", Layer: "runtime", Moves: "jobs_per_s on " + onAll},
	{Name: "host.cpu_steal_share", Unit: "ratio", Better: "lower", Layer: "host", Moves: "none: tells a slow host from a slower program"},
	{Name: "host.calib_us", Unit: "us", Better: "lower", Layer: "host", Moves: "none: a fixed stdlib workload, so it moves with the host only"},
}

// spanNames are the spans whose self time (duration minus the part its
// children cover) the traced run reports per job: the benchmark's own
// client and runner spans, and the server's per-job timeline.
var spanNames = []string{
	"client.job", "client.submit", "client.stream", "client.result",
	"job", "queue", "run", "replica", "commit",
	"runner.acquire", "runner.renew", "runner.commit", "runner.compute",
}

func selfMetric(span string) string { return "self." + span + "_ms_per_job" }

func overheadMetric(e2e string) string { return "overhead." + e2e }

// tracedMetrics is every metric a traced run reports: the per-layer table,
// self time per span name, and the tracing overhead on each end-to-end
// metric (traced minus untraced half of the same run).
func tracedMetrics() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, s := range spanNames {
		out = append(out, metricDef{Name: selfMetric(s), Unit: "ms", Better: "lower", Layer: "trace",
			Moves: "done_p50_ms where the span runs"})
	}
	for _, m := range endToEnd {
		out = append(out, metricDef{Name: overheadMetric(m.Name), Unit: m.Unit, Better: m.Better, Layer: "trace",
			Moves: "none: tracing cost on " + m.Name})
	}
	return out
}
