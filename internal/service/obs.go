package service

import (
	"net/http"
	"strconv"
	"time"

	"mcopt/internal/buildinfo"
	"mcopt/internal/metrics"
	"mcopt/internal/obs"
)

// This file wires the obs metrics registry through the service: HTTP
// middleware (per-route request counts and latency histograms by status
// code), job lifecycle metrics (queue-wait and run-duration histograms,
// jobs-by-state gauges, submit rejections, idempotency hits, worker-pool
// utilization), and the engine bridge (an EngineCollector teed into every
// replica's hook). Label cardinality is bounded by construction: routes are
// mux patterns, states/outcomes/reasons are closed enums, and temperature
// levels are schedule positions — job IDs and other user input never become
// labels (DESIGN.md §11).

// Submit rejection reasons, the label values of mcoptd_submit_rejected_total.
const (
	rejectQueueFull = "queue_full" // 429 backpressure
	rejectDraining  = "draining"   // 503 shutdown
	rejectInvalid   = "invalid"    // 400 spec validation
)

// Runner rejection reasons (mcoptd_runner_rejected_total).
const (
	rejectVersion = "version" // build fingerprint mismatch at register, 409
)

// Lease grant modes (mcoptd_leases_granted_total).
const (
	leaseModeFresh  = "fresh"  // a window of free slots
	leaseModeStolen = "stolen" // carved out of a straggler's lease
)

// Lease commit outcomes (mcoptd_lease_commits_total).
const (
	commitOK        = "ok"        // fresh slot committed to the journal
	commitDuplicate = "duplicate" // already committed; acknowledged idempotently
	commitEpoch     = "epoch"     // dead or superseded lease, rejected
	commitNotHeld   = "not_held"  // slot stolen from the lease, rejected
	commitError     = "error"     // journal or payload failure
	commitLocal     = "local"     // computed in-process by the manager
)

// serverMetrics owns every service-level instrument plus the engine bridge.
type serverMetrics struct {
	reg    *obs.Registry
	engine *metrics.EngineCollector

	httpRequests *obs.CounterVec   // route, code
	httpLatency  *obs.HistogramVec // route
	submitted    *obs.Counter
	rejected     *obs.CounterVec // reason
	idemHits     *obs.Counter
	completed    *obs.CounterVec // outcome: done | failed | cancelled | requeued
	queueWait    *obs.Histogram
	runSeconds   *obs.Histogram

	// Distributed-execution families (DESIGN.md §14).
	runnerRegs     *obs.Counter
	runnerRejected *obs.CounterVec // reason
	leasesGranted  *obs.CounterVec // mode: fresh | stolen
	leaseRenewals  *obs.Counter
	leasesExpired  *obs.Counter
	leaseCommits   *obs.CounterVec // result: ok | duplicate | epoch | not_held | error | local

	// Run-archive families (DESIGN.md §15).
	retired        *obs.Counter
	archiveGCRuns  *obs.Counter
	archiveGCBytes *obs.Counter
	querySeconds   *obs.Histogram
}

// newServerMetrics registers the service families on reg.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg:    reg,
		engine: metrics.NewEngineCollector(reg),
		httpRequests: reg.CounterVec("mcoptd_http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "code"),
		httpLatency: reg.HistogramVec("mcoptd_http_request_seconds",
			"HTTP request handling latency by route pattern.",
			obs.DurationBuckets(), "route"),
		submitted: reg.Counter("mcoptd_jobs_submitted_total",
			"Jobs accepted and enqueued (idempotent replays excluded)."),
		rejected: reg.CounterVec("mcoptd_submit_rejected_total",
			"Submissions refused, by reason (queue_full is the 429 backpressure path).",
			"reason"),
		idemHits: reg.Counter("mcoptd_idempotency_hits_total",
			"Submissions answered by an earlier job via Idempotency-Key."),
		completed: reg.CounterVec("mcoptd_jobs_completed_total",
			"Job executions finished, by outcome (requeued = interrupted by drain, resumes on restart).",
			"outcome"),
		queueWait: reg.Histogram("mcoptd_job_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.",
			obs.DurationBuckets()),
		runSeconds: reg.Histogram("mcoptd_job_run_seconds",
			"Wall-clock duration of job executions (all replicas plus commit).",
			obs.DurationBuckets()),
		runnerRegs: reg.Counter("mcoptd_runner_registrations_total",
			"Runner registrations accepted after the fingerprint handshake."),
		runnerRejected: reg.CounterVec("mcoptd_runner_rejected_total",
			"Runner registrations refused, by reason (version = build fingerprint mismatch).",
			"reason"),
		leasesGranted: reg.CounterVec("mcoptd_leases_granted_total",
			"Replica-range leases granted, by mode (stolen = work-stealing split of a straggler).",
			"mode"),
		leaseRenewals: reg.Counter("mcoptd_lease_renewals_total",
			"Lease heartbeat renewals accepted."),
		leasesExpired: reg.Counter("mcoptd_leases_expired_total",
			"Leases expired for missed heartbeats; their slots were re-leased."),
		leaseCommits: reg.CounterVec("mcoptd_lease_commits_total",
			"Lease slot commits, by result (duplicate = idempotent replay; local = computed in-process by the manager).",
			"result"),
		retired: reg.Counter("mcoptd_jobs_retired_total",
			"Terminal jobs compacted into the run archive and removed from the job store."),
		archiveGCRuns: reg.Counter("mcoptd_archive_gc_runs_total",
			"Archive retention passes executed."),
		archiveGCBytes: reg.Counter("mcoptd_archive_gc_bytes_total",
			"Bytes reclaimed by archive retention (whole oldest-first segments)."),
		querySeconds: reg.Histogram("mcoptd_archive_query_seconds",
			"Archive query handling latency (scan plus grouping).",
			obs.DurationBuckets()),
	}
}

// defaultRegistry builds the registry mcoptd exports: version-labeled so
// mixed-version fleets are distinguishable in scrapes.
func defaultRegistry() *obs.Registry {
	return obs.NewRegistry(obs.Label{Name: "version", Value: buildinfo.Short()})
}

// registerCollectGauges installs the scrape-time gauge refresh: per-state
// job counts, queue depth/capacity, and worker-pool utilization, all read
// from the manager's source of truth rather than kept incrementally.
func (m *Manager) registerCollectGauges() {
	reg := m.obs.reg
	jobs := reg.GaugeVec("mcoptd_jobs", "Jobs currently known, by lifecycle state.", "state")
	states := map[State]*obs.Gauge{
		StateQueued:    jobs.With(string(StateQueued)),
		StateRunning:   jobs.With(string(StateRunning)),
		StateDone:      jobs.With(string(StateDone)),
		StateFailed:    jobs.With(string(StateFailed)),
		StateCancelled: jobs.With(string(StateCancelled)),
	}
	queueDepth := reg.Gauge("mcoptd_queue_depth", "Jobs waiting for a worker.")
	queueCap := reg.Gauge("mcoptd_queue_capacity", "Pending-job limit before submits get 429.")
	busy := reg.Gauge("mcoptd_workers_busy", "Workers currently executing a job.")
	total := reg.Gauge("mcoptd_workers", "Size of the job worker pool.")
	runners := reg.Gauge("mcoptd_runners", "Live registered runners (heartbeat within the runner TTL).")
	var archRecords, archBytes, archSegments *obs.Gauge
	if m.arch != nil {
		archRecords = reg.Gauge("mcoptd_archive_records", "Records held by the run archive.")
		archBytes = reg.Gauge("mcoptd_archive_bytes", "On-disk size of the run archive (sealed segments plus active).")
		archSegments = reg.Gauge("mcoptd_archive_segments", "Sealed archive segments on disk.")
	}
	reg.OnCollect(func() {
		runners.Set(float64(m.coord.live()))
		if m.arch != nil {
			ast := m.arch.Stats()
			archRecords.Set(float64(ast.Records))
			archBytes.Set(float64(ast.Bytes))
			archSegments.Set(float64(ast.Segments))
		}
		st := m.Stats()
		states[StateQueued].Set(float64(st.Queued))
		states[StateRunning].Set(float64(st.RunningJobs))
		states[StateDone].Set(float64(st.Done))
		states[StateFailed].Set(float64(st.Failed))
		states[StateCancelled].Set(float64(st.Cancelled))
		queueDepth.Set(float64(st.Pending))
		queueCap.Set(float64(st.MaxQueue))
		busy.Set(float64(st.Running))
		total.Set(float64(st.Workers))
	})
}

// Registry exposes the manager's metrics registry (for /metrics and tests).
func (m *Manager) Registry() *obs.Registry { return m.obs.reg }

// statusRecorder captures the response code for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// Flush keeps the streaming endpoints' flusher visible through the wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a route handler with request count and latency
// recording. The route label is the mux pattern ("POST /v1/jobs"), never
// the raw URL, so cardinality is fixed by the route table.
func (sm *serverMetrics) instrument(route string, h http.Handler) http.Handler {
	latency := sm.httpLatency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		sm.httpRequests.With(route, statusText(rec.code)).Inc()
		latency.Observe(time.Since(start).Seconds())
	})
}

// statusText renders a status code label without fmt on the hot path.
func statusText(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusCreated:
		return "201"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	default:
		return strconv.Itoa(code) // rare; still bounded by the status-code space
	}
}
