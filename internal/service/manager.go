package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mcopt/internal/archive"
	"mcopt/internal/atomicio"
	"mcopt/internal/buildinfo"
	"mcopt/internal/core"
	"mcopt/internal/obs"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrQueueFull reports that the queue is at MaxQueue pending jobs; the
	// API surfaces it as 429 with Retry-After.
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining reports that the manager is shutting down and accepts no
	// new work; the API surfaces it as 503.
	ErrDraining = errors.New("service: draining")
	// ErrNoTrace reports that a job has no span timeline (tracing disabled
	// and no committed trace file); the API surfaces it as 404.
	ErrNoTrace = errors.New("service: no trace recorded")
)

// ValidationError wraps a spec rejection so the API can answer 400 rather
// than 500.
type ValidationError struct{ Err error }

// Error implements the error interface.
func (e *ValidationError) Error() string { return "service: invalid spec: " + e.Err.Error() }

// Unwrap exposes the underlying cause.
func (e *ValidationError) Unwrap() error { return e.Err }

// Config shapes a Manager.
type Config struct {
	// Dir is the data directory; jobs persist under Dir/jobs/<id>/. Required.
	Dir string
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// MaxQueue bounds pending (not yet running) jobs (default 64). Submits
	// beyond it fail with ErrQueueFull — the backpressure path.
	MaxQueue int
	// RunWorkers is the scheduler worker count inside each job's replica
	// grid (default 1: replicas run sequentially, so a job's event stream is
	// reproducible; results are slot-addressed and byte-identical at any
	// setting).
	RunWorkers int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the service metric families; by
	// default the manager builds a version-labeled registry of its own.
	// Either way /metrics exposes it via Manager.Registry.
	Registry *obs.Registry
	// DisableObs turns off per-job observability — the engine-hook metrics
	// bridge and trace span recording. Lifecycle and HTTP metrics remain.
	// The smoke test uses it to pin that observability never changes
	// result bytes.
	DisableObs bool

	// LeaseTTL is the distributed lease lifetime between heartbeat renewals
	// (default 10s): a runner silent this long forfeits its replica window.
	LeaseTTL time.Duration
	// RunnerTTL is how long a registered runner may go without any request
	// before the coordinator presumes it dead (default 3×LeaseTTL).
	RunnerTTL time.Duration
	// LeaseChunk bounds the replica slots per lease grant (default 8).
	LeaseChunk int
	// Fingerprint identifies this build in the runner-register handshake;
	// runners presenting a different one are refused with 409. Defaults to
	// buildinfo.Short(). Tests override it to simulate mixed fleets.
	Fingerprint string

	// ArchiveDir, when non-empty, enables the run archive: terminal jobs
	// older than RetireAge are compacted into it and their directories
	// removed (DESIGN.md §15). Empty disables retirement entirely.
	ArchiveDir string
	// RetireAge is how long a job must be terminal before the retirement
	// sweep moves it into the archive. Zero retires terminal jobs at the
	// next sweep; clients that poll status or fetch results later than this
	// get 404 and must use the archive query instead.
	RetireAge time.Duration
	// RetireInterval is the retirement sweep period (default 10s).
	RetireInterval time.Duration
	// ArchiveMaxAge and ArchiveMaxBytes are the archive retention bounds,
	// applied oldest-segment-first after each sweep; zero means unbounded.
	ArchiveMaxAge   time.Duration
	ArchiveMaxBytes int64
	// ArchiveSegmentBytes overrides the archive's segment roll threshold
	// (default archive.DefaultSegmentBytes). Tests shrink it to force rolls.
	ArchiveSegmentBytes int64
}

// Manager is the durable job queue: it persists every submitted spec,
// executes jobs on a bounded worker pool, journals replica completions, and
// re-enqueues unfinished jobs when reopened over an existing data
// directory.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	byKey    map[string]string // idempotency key → job ID
	pending  []*Job            // FIFO, Seq order
	running  int
	nextSeq  int64
	draining bool
	obs      *serverMetrics   // registry-backed service metrics
	coord    *coordinator     // distributed-execution state (always non-nil)
	arch     *archive.Archive // run archive; nil when ArchiveDir is unset
	zip      replayCompressor // compresses finished jobs' event replays

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	// localSlotGate, when set, runs before each in-process slot checks for
	// a live fleet; tests use it to hold slots until a runner registers.
	localSlotGate func(ctx context.Context, slot int)
}

// Open builds a manager over cfg.Dir, restores the jobs persisted there —
// terminal jobs keep their recorded outcome; unfinished jobs re-enter the
// queue in submit order and resume from their checkpoint journals — and
// starts the worker pool.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.RunWorkers <= 0 {
		cfg.RunWorkers = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if cfg.Registry == nil {
		cfg.Registry = defaultRegistry()
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.RunnerTTL <= 0 {
		cfg.RunnerTTL = 3 * cfg.LeaseTTL
	}
	if cfg.LeaseChunk <= 0 {
		cfg.LeaseChunk = 8
	}
	if cfg.Fingerprint == "" {
		cfg.Fingerprint = buildinfo.Short()
	}
	m := &Manager{
		cfg:   cfg,
		jobs:  map[string]*Job{},
		byKey: map[string]string{},
		obs:   newServerMetrics(cfg.Registry),
	}
	m.coord = newCoordinator(m)
	m.cond = sync.NewCond(&m.mu)
	m.runCtx, m.runCancel = context.WithCancel(context.Background())
	if cfg.ArchiveDir != "" {
		if cfg.RetireInterval <= 0 {
			m.cfg.RetireInterval = 10 * time.Second
		}
		arch, err := archive.Open(archive.Options{
			Dir:          cfg.ArchiveDir,
			SegmentBytes: cfg.ArchiveSegmentBytes,
			Logf:         cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		m.arch = arch
	}
	m.registerCollectGauges()
	// The archive must be open before the scan: restart recovery consults it
	// to finish retirements a crash interrupted.
	if err := m.scan(); err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.arch != nil {
		m.wg.Add(1)
		go m.retireLoop()
	}
	return m, nil
}

// specEnvelope is the persisted form of a submission: the spec plus the
// identity the manager must restore on restart.
type specEnvelope struct {
	ID   string  `json:"id"`
	Key  string  `json:"key,omitempty"`
	Seq  int64   `json:"seq"`
	Spec JobSpec `json:"spec"`
}

// scan rebuilds the job table from the data directory.
func (m *Manager) scan() error {
	root := filepath.Join(m.cfg.Dir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	var resumed []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if strings.HasSuffix(e.Name(), retiringSuffix) {
			// A retirement that crashed after the rename. The rename only
			// ever happens once the record is durably archived, so the
			// directory is always safe to finish deleting.
			m.cfg.Logf("service: finishing interrupted retirement of %s", e.Name())
			if err := os.RemoveAll(dir); err != nil {
				m.cfg.Logf("service: %v", err)
			}
			continue
		}
		if m.arch != nil && m.arch.Has(e.Name()) {
			// A retirement that crashed between the durable append and the
			// rename: the archive already holds the job, so complete the
			// delete instead of restoring a duplicate.
			m.cfg.Logf("service: finishing interrupted retirement of archived job %s", e.Name())
			if err := os.RemoveAll(dir); err != nil {
				m.cfg.Logf("service: %v", err)
			}
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, specFile))
		if err != nil {
			m.cfg.Logf("service: skipping %s: %v", dir, err)
			continue
		}
		var env specEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.ID != e.Name() {
			m.cfg.Logf("service: skipping %s: bad spec envelope", dir)
			continue
		}
		env.Spec.Normalize()
		j := newJob(env.ID, env.Key, env.Seq, env.Spec, &m.zip)
		m.jobs[j.ID] = j
		if j.Key != "" {
			m.byKey[j.Key] = j.ID
		}
		if env.Seq >= m.nextSeq {
			m.nextSeq = env.Seq + 1
		}
		switch {
		case fileExists(filepath.Join(dir, cancelledFile)):
			j.setState(StateCancelled, "")
		case fileExists(filepath.Join(dir, resultFile)):
			m.restoreDone(j, dir)
		case fileExists(filepath.Join(dir, errorFile)):
			j.setState(StateFailed, readErrorFile(dir))
		default:
			if !m.cfg.DisableObs {
				j.startTrace(true)
			}
			resumed = append(resumed, j)
		}
	}
	sort.Slice(resumed, func(a, b int) bool { return resumed[a].Seq < resumed[b].Seq })
	m.pending = resumed
	if len(resumed) > 0 {
		m.cfg.Logf("service: resuming %d unfinished job(s)", len(resumed))
	}
	return nil
}

// restoreDone marks a scanned job done, recovering its headline status from
// the result artifact.
func (m *Manager) restoreDone(j *Job, dir string) {
	if data, err := readResult(dir); err == nil {
		var res Result
		if json.Unmarshal(data, &res) == nil {
			j.mu.Lock()
			j.problem = res.Problem
			j.doneRuns = len(res.Runs)
			best := res.BestCost
			j.bestCost = &best
			j.mu.Unlock()
		}
	}
	j.setState(StateDone, "")
}

func readErrorFile(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, errorFile))
	if err != nil {
		return "unknown failure"
	}
	var v struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &v) == nil && v.Error != "" {
		return v.Error
	}
	return "unknown failure"
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func (m *Manager) jobDir(id string) string {
	return filepath.Join(m.cfg.Dir, "jobs", id)
}

// newID returns a fresh 16-hex-digit job ID.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Submit validates, persists, and enqueues a job. A non-empty idempotency
// key that matches an earlier submission returns that job with created ==
// false instead of enqueueing a duplicate.
func (m *Manager) Submit(spec JobSpec, key string) (job *Job, created bool, err error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		m.obs.rejected.With(rejectInvalid).Inc()
		return nil, false, &ValidationError{Err: err}
	}
	if _, err := compile(&spec); err != nil {
		m.obs.rejected.With(rejectInvalid).Inc()
		return nil, false, &ValidationError{Err: err}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.obs.rejected.With(rejectDraining).Inc()
		return nil, false, ErrDraining
	}
	if key != "" {
		if id, ok := m.byKey[key]; ok {
			m.obs.idemHits.Inc()
			return m.jobs[id], false, nil
		}
	}
	if len(m.pending) >= m.cfg.MaxQueue {
		m.obs.rejected.With(rejectQueueFull).Inc()
		return nil, false, ErrQueueFull
	}
	id, err := newID()
	if err != nil {
		return nil, false, err
	}
	j := newJob(id, key, m.nextSeq, spec, &m.zip)

	// Persist before exposing: a job the API has acknowledged must survive a
	// crash landing anywhere after this write.
	dir := m.jobDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("service: %w", err)
	}
	env := specEnvelope{ID: id, Key: key, Seq: j.Seq, Spec: spec}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, false, fmt.Errorf("service: %w", err)
	}
	if err := atomicio.WriteFile(filepath.Join(dir, specFile), append(data, '\n'), 0o644); err != nil {
		return nil, false, err
	}

	m.nextSeq++
	m.jobs[id] = j
	if key != "" {
		m.byKey[key] = id
	}
	if !m.cfg.DisableObs {
		j.startTrace(false)
	}
	m.obs.submitted.Inc()
	m.pending = append(m.pending, j)
	m.cond.Signal()
	return j, true, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Result returns the committed result artifact of a done job.
func (m *Manager) Result(id string) ([]byte, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	if j.State() != StateDone {
		return nil, fmt.Errorf("service: job %s is %s, not done", id, j.State())
	}
	return readResult(m.jobDir(id))
}

// Cancel stops a job: a queued job is cancelled immediately; a running job
// has its context cancelled and reaches StateCancelled once its engine
// observes the cancellation. Cancelling a terminal job is a no-op. The
// returned state is the job's state as of the call.
func (m *Manager) Cancel(id string) (State, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return "", ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		state := j.state
		j.mu.Unlock()
		m.mu.Unlock()
		return state, nil
	case j.state == StateQueued:
		j.cancelled = true
		j.mu.Unlock()
		for i, p := range m.pending {
			if p == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		m.markCancelled(j)
		return StateCancelled, nil
	default: // running
		j.cancelled = true
		cancel := j.cancelRun
		j.mu.Unlock()
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return StateRunning, nil
	}
}

// markCancelled persists the cancellation marker and finalizes the state.
func (m *Manager) markCancelled(j *Job) {
	path := filepath.Join(m.jobDir(j.ID), cancelledFile)
	if err := atomicio.WriteFile(path, []byte("cancelled\n"), 0o644); err != nil {
		m.cfg.Logf("service: job %s: %v", j.ID, err)
	}
	j.setState(StateCancelled, "")
	m.flushTrace(j, outcomeCancelled)
	j.closeSubscribers()
}

// Job execution outcomes, the label values of mcoptd_jobs_completed_total.
const (
	outcomeDone      = "done"
	outcomeFailed    = "failed"
	outcomeCancelled = "cancelled"
	outcomeRequeued  = "requeued"
)

// engineHook returns a fresh registry bridge hook for one replica run, or
// nil when per-job observability is disabled.
func (m *Manager) engineHook() core.Hook {
	if m.cfg.DisableObs {
		return nil
	}
	return m.obs.engine.Hook()
}

// flushTrace commits a terminal job's span timeline to its data directory
// (trace.jsonl) via atomicio. Any spans still open — replicas of a
// cancelled grid, the run span of a failed job — are closed as of now so
// the file reconstructs a complete timeline. Once the file is committed the
// in-memory spans are dropped — TraceData serves the file from then on; if
// the commit fails they stay.
func (m *Manager) flushTrace(j *Job, outcome string) {
	if j.trace == nil {
		return
	}
	j.trace.Annotate(j.rootSpan, map[string]string{"outcome": outcome})
	j.trace.EndOpen()
	var buf bytes.Buffer
	if err := j.trace.WriteJSONL(&buf); err != nil {
		m.cfg.Logf("service: job %s: trace: %v", j.ID, err)
		return
	}
	if err := atomicio.WriteFile(filepath.Join(m.jobDir(j.ID), traceFile), buf.Bytes(), 0o644); err != nil {
		m.cfg.Logf("service: job %s: trace: %v", j.ID, err)
		return
	}
	j.trace.Drop()
}

// TraceData returns a job's span timeline as JSONL: the committed trace
// file once the job is terminal, else a live snapshot of the in-memory
// trace (open spans carry dur_ns = -1). ErrNotFound for unknown jobs;
// ErrNoTrace when tracing is disabled and no file was ever committed.
func (m *Manager) TraceData(id string) ([]byte, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	if data, err := os.ReadFile(filepath.Join(m.jobDir(id), traceFile)); err == nil {
		return data, nil
	}
	if j.trace == nil {
		return nil, ErrNoTrace
	}
	var buf bytes.Buffer
	if err := j.trace.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// worker pops pending jobs in FIFO order until drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.draining && len(m.pending) == 0 {
			m.cond.Wait()
		}
		if m.draining {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.execute(j)
	}
}

// execute runs one job end to end and classifies the outcome.
func (m *Manager) execute(j *Job) {
	ctx, cancel := context.WithCancel(m.runCtx)
	defer cancel()
	if !j.setRunning(cancel) {
		// Cancelled between pop and start.
		return
	}
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
	m.cfg.Logf("service: job %s: running (%s, %d run(s), budget %d)",
		j.ID, j.Spec.Problem.Kind, j.Spec.Runs, j.Spec.Budget)

	m.obs.queueWait.Observe(time.Since(j.enqueuedAt).Seconds())
	if j.trace != nil {
		j.trace.End(j.queueSpan)
		j.runSpan = j.trace.Start(j.rootSpan, "run", nil)
	}
	started := time.Now()
	err := m.runJob(ctx, j)

	m.obs.runSeconds.Observe(time.Since(started).Seconds())
	j.mu.Lock()
	j.runMillis = time.Since(started).Milliseconds()
	j.mu.Unlock()
	m.mu.Lock()
	m.running--
	draining := m.draining
	m.mu.Unlock()

	switch {
	case err == nil:
		// Count before the state transition publishes: a client that polls
		// the job to "done" and immediately scrapes /metrics must see the
		// completion already counted.
		m.obs.completed.With(outcomeDone).Inc()
		j.setState(StateDone, "")
		m.flushTrace(j, outcomeDone)
		j.closeSubscribers()
		m.cfg.Logf("service: job %s: done", j.ID)
	case j.isCancelled():
		m.obs.completed.With(outcomeCancelled).Inc()
		m.markCancelled(j)
		m.cfg.Logf("service: job %s: cancelled", j.ID)
	case draining && errors.Is(err, context.Canceled):
		// Interrupted by shutdown: the journal holds every completed
		// replica, nothing terminal is recorded, so the next Open re-enqueues
		// and resumes this job. The in-memory trace dies with the process;
		// the restart scan opens a fresh one marked resumed.
		j.requeue()
		if j.trace != nil {
			j.trace.Annotate(j.runSpan, map[string]string{"outcome": outcomeRequeued})
			j.trace.End(j.runSpan)
		}
		m.obs.completed.With(outcomeRequeued).Inc()
		m.cfg.Logf("service: job %s: interrupted by drain; will resume on restart", j.ID)
	default:
		m.persistFailure(j, err)
		m.obs.completed.With(outcomeFailed).Inc()
		j.setState(StateFailed, err.Error())
		m.flushTrace(j, outcomeFailed)
		j.closeSubscribers()
		m.cfg.Logf("service: job %s: failed: %v", j.ID, err)
	}
}

// persistFailure records a terminal failure so a restart does not retry a
// job that fails deterministically.
func (m *Manager) persistFailure(j *Job, runErr error) {
	data, err := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: runErr.Error()})
	if err != nil {
		m.cfg.Logf("service: job %s: %v", j.ID, err)
		return
	}
	if err := atomicio.WriteFile(filepath.Join(m.jobDir(j.ID), errorFile), append(data, '\n'), 0o644); err != nil {
		m.cfg.Logf("service: job %s: %v", j.ID, err)
	}
}

// Draining reports whether Stop has begun; /readyz keys off it.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Stop drains the manager: no new submissions, in-flight jobs are cancelled
// (their journals keep every completed replica, so a later Open resumes
// them), and the worker pool exits. Stop returns when the workers have
// stopped or ctx expires.
func (m *Manager) Stop(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.runCancel()

	stopped := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(stopped)
	}()
	var err error
	select {
	case <-stopped:
		// Workers and the retirement loop are gone; archived state is
		// already durable (every append fsyncs), so closing here only
		// releases the file handle. On a drain timeout the archive stays
		// open: a straggling retirement must not race a closed handle.
		if m.arch != nil {
			if cerr := m.arch.Close(); cerr != nil {
				m.cfg.Logf("service: archive: %v", cerr)
			}
		}
	case <-ctx.Done():
		err = fmt.Errorf("service: drain: %w", ctx.Err())
	}
	// End every live event stream so HTTP shutdown is not held hostage by
	// watchers of jobs that will only resume after a restart.
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.closeSubscribers()
	}
	return err
}

// QueueStats is the gauge snapshot behind the /metrics job and queue gauges.
type QueueStats struct {
	Pending, MaxQueue, Running, Workers          int
	Queued, Done, Failed, Cancelled, RunningJobs int
	Total                                        int
}

// Stats snapshots the queue gauges and per-state job counts.
func (m *Manager) Stats() QueueStats {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	st := QueueStats{
		Pending:  len(m.pending),
		MaxQueue: m.cfg.MaxQueue,
		Running:  m.running,
		Workers:  m.cfg.Workers,
		Total:    len(m.jobs),
	}
	m.mu.Unlock()
	for _, j := range jobs {
		switch j.State() {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.RunningJobs++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}
