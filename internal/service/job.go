package service

import (
	"bytes"
	"compress/flate"
	"context"
	"io"
	"strconv"
	"sync"
	"time"

	"mcopt/internal/metrics"
	"mcopt/internal/obs"
)

// State is a job's lifecycle position. Transitions:
//
//	queued ─→ running ─→ done
//	   │         ├─────→ failed
//	   │         ├─────→ cancelled
//	   │         └─────→ queued      (server drained mid-job; resumes on restart)
//	   └───────────────→ cancelled
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: no further transitions, and
// event streams for the job end.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// StreamRecord is one NDJSON line of a job's event stream: either a
// lifecycle transition ("state") or an engine telemetry event ("event",
// bridged from core.Hook through internal/metrics). The stream carries no
// wall-clock data, so a seeded job streams reproducible content.
type StreamRecord struct {
	// Type is "state" or "event".
	Type string `json:"type"`
	// Job is the job ID.
	Job string `json:"job"`
	// State, Error, Done and Total describe lifecycle records; Done/Total
	// count completed vs. total replicas.
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	// Event is the engine record for "event" lines, labeled "run@<i>".
	Event *metrics.Record `json:"event,omitempty"`
}

// Status is the API view of a job.
type Status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Problem is the compiled instance description ("gola (15 cells, 150
	// nets)"); empty until the job first runs.
	Problem string `json:"problem,omitempty"`
	// DoneRuns counts the replicas recorded in the job's checkpoint journal
	// (restored ones included); TotalRuns is Spec.Runs.
	DoneRuns  int `json:"done_runs"`
	TotalRuns int `json:"total_runs"`
	// BestCost is the best replica cost, present once the job is done.
	BestCost *float64 `json:"best_cost,omitempty"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
}

// Job is one queued/running/finished optimization job. All fields behind mu;
// the runner goroutine, HTTP handlers, and the manager all touch it.
type Job struct {
	// Immutable after creation.
	ID   string
	Key  string // idempotency key, "" when none
	Seq  int64  // submit order, preserved across restarts
	Spec JobSpec

	// enqueuedAt anchors the queue-wait histogram; for jobs restored by a
	// restart scan it is the scan time, not the original submission.
	// Wall-clock data never reaches the result artifact.
	enqueuedAt time.Time

	// trace records the job's span timeline (nil when obs is disabled).
	// rootSpan/queueSpan/runSpan are span IDs inside it; the trace itself
	// is concurrency-safe, the IDs are written before the runner starts.
	trace     *obs.Trace
	rootSpan  int
	queueSpan int
	runSpan   int

	mu        sync.Mutex
	state     State
	errMsg    string
	problem   string
	doneRuns  int
	bestCost  *float64
	cancelled bool               // user asked for cancellation
	cancelRun context.CancelFunc // cancels the in-flight run, nil when not running
	// terminalAt is when the job reached its terminal state (for restored
	// jobs, the restart scan time) — the retirement sweep's age anchor.
	// runMillis is the last execution's wall-clock duration; zero for jobs
	// whose timing died with an earlier process.
	terminalAt time.Time
	runMillis  int64

	// stream is the replay window, each record encoded once, at publish,
	// into the NDJSON line subscribers receive. At the terminal transition
	// zip compresses the window into replay, and the window is released.
	// subs are live subscribers.
	stream lineLog
	zip    *replayCompressor
	replay []byte
	subs   map[*subscriber]struct{}
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id, key string, seq int64, spec JobSpec, zip *replayCompressor) *Job {
	return &Job{
		ID:         id,
		Key:        key,
		Seq:        seq,
		Spec:       spec,
		enqueuedAt: time.Now(),
		state:      StateQueued,
		zip:        zip,
		subs:       map[*subscriber]struct{}{},
		done:       make(chan struct{}),
	}
}

// startTrace opens the job's span timeline: a root "job" span carrying the
// spec's headline attributes, with a "queue" child measuring time until a
// worker picks the job up. resumed marks jobs re-enqueued by a restart
// scan — their earlier process's spans are gone, so the trace restarts.
func (j *Job) startTrace(resumed bool) {
	attrs := map[string]string{
		"kind":     j.Spec.Problem.Kind,
		"strategy": j.Spec.Strategy,
		"runs":     strconv.Itoa(j.Spec.Runs),
		"budget":   strconv.FormatInt(j.Spec.Budget, 10),
	}
	if resumed {
		attrs["resumed"] = "true"
	}
	j.trace = obs.NewTrace(j.ID)
	j.rootSpan = j.trace.Start(0, "job", attrs)
	j.queueSpan = j.trace.Start(j.rootSpan, "queue", nil)
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Problem:   j.problem,
		DoneRuns:  j.doneRuns,
		TotalRuns: j.Spec.Runs,
		BestCost:  j.bestCost,
		Error:     j.errMsg,
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setState moves the job to state and publishes the transition. Idempotent
// on terminal states so a drain racing a natural completion cannot
// double-close done. The terminal transition compresses the replay window
// and releases it: a finished job keeps only what it still serves.
func (j *Job) setState(state State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.publishLocked(j.stateRecordLocked())
	if state.Terminal() {
		j.terminalAt = time.Now()
		close(j.done)
		j.replay = j.zip.compress(j.stream.bytes())
		j.stream = lineLog{}
	}
}

// setRunning moves a queued job to running with the given run-cancel
// function, reporting false when the job was cancelled while pending.
func (j *Job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.cancelled {
		return false
	}
	j.state = StateRunning
	j.cancelRun = cancel
	j.publishLocked(j.stateRecordLocked())
	return true
}

// requeue returns a drain-interrupted running job to queued: nothing
// terminal is recorded, so the next Open resumes it from its journal.
func (j *Job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = StateQueued
	j.cancelRun = nil
	j.publishLocked(j.stateRecordLocked())
}

// isCancelled reports whether a user cancellation was requested.
func (j *Job) isCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

func (j *Job) stateRecordLocked() StreamRecord {
	return StreamRecord{
		Type:  "state",
		Job:   j.ID,
		State: j.state,
		Error: j.errMsg,
		Done:  j.doneRuns,
		Total: j.Spec.Runs,
	}
}

// setProgress records replica completion counts and publishes a state line
// when the count moved.
func (j *Job) setProgress(done int) {
	j.mu.Lock()
	if done != j.doneRuns {
		j.doneRuns = done
		j.publishLocked(j.stateRecordLocked())
	}
	j.mu.Unlock()
}

// publishEvent bridges one engine telemetry record into the stream.
func (j *Job) publishEvent(rec metrics.Record) {
	j.mu.Lock()
	j.publishLocked(StreamRecord{Type: "event", Job: j.ID, Event: &rec})
	j.mu.Unlock()
}

// publishLocked encodes rec into the replay window — the one encoding every
// subscriber shares — and hands the line to the live subscribers. A record
// JSON cannot carry (a NaN or infinite cost) is dropped.
func (j *Job) publishLocked(rec StreamRecord) {
	line, ok := j.stream.add(&rec)
	if !ok {
		return
	}
	for s := range j.subs {
		s.add(line)
	}
}

// streamTo writes the job's NDJSON stream to w: the replay window, then the
// live tail until the job ends (or the server stops) or ctx is done,
// calling flush after each write. A finished job's stream is its
// compressed replay, decompressed.
func (j *Job) streamTo(ctx context.Context, w io.Writer, flush func()) error {
	j.mu.Lock()
	if j.state.Terminal() {
		replay := j.replay
		j.mu.Unlock()
		_, err := io.Copy(w, flate.NewReader(bytes.NewReader(replay)))
		flush()
		return err
	}
	// Replay under the same lock that orders publishes, so the subscriber
	// sees every record exactly once and in order.
	replay := j.stream.bytes()
	s := &subscriber{
		pending: append(make([]byte, 0, len(replay)+liveHeadroom), replay...),
		lines:   j.stream.lines(),
		wake:    make(chan struct{}, 1),
	}
	s.signal()
	j.subs[s] = struct{}{}
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		delete(j.subs, s)
		j.mu.Unlock()
	}()

	var out []byte
	for {
		select {
		case <-s.wake:
		case <-ctx.Done():
			return ctx.Err()
		}
		j.mu.Lock()
		out, s.pending = s.pending, out[:0]
		s.lines = 0
		closed := s.closed
		j.mu.Unlock()
		if len(out) > 0 {
			if _, err := w.Write(out); err != nil {
				return err
			}
			flush()
		}
		if closed {
			return nil
		}
	}
}

// closeSubscribers ends every live stream once its pending lines are
// written; called once the job is terminal, and on server stop.
func (j *Job) closeSubscribers() {
	j.mu.Lock()
	for s := range j.subs {
		delete(j.subs, s)
		s.closed = true
		s.signal()
	}
	j.mu.Unlock()
}
