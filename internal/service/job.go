package service

import (
	"context"
	"slices"
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

// streamBuffer bounds the per-job replay buffer: a late subscriber sees at
// most this many trailing records before the live tail.
const streamBuffer = 1024

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

	// recent is the bounded replay ring; subs are live subscribers.
	recent []StreamRecord
	subs   map[*subscriber]struct{}
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

type subscriber struct {
	ch chan StreamRecord
}

func newJob(id, key string, seq int64, spec JobSpec) *Job {
	return &Job{
		ID:         id,
		Key:        key,
		Seq:        seq,
		Spec:       spec,
		enqueuedAt: time.Now(),
		state:      StateQueued,
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
// double-close done.
func (j *Job) setState(state State, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	rec := j.stateRecordLocked()
	if state.Terminal() {
		j.terminalAt = time.Now()
		close(j.done)
	}
	j.publishLocked(rec)
	j.mu.Unlock()
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

// publishLocked appends to the replay ring and fans out to live
// subscribers. A subscriber whose buffer is full loses the record — the
// stream is telemetry, and a stalled client must not stall the engine.
func (j *Job) publishLocked(rec StreamRecord) {
	if len(j.recent) == streamBuffer {
		j.recent = slices.Delete(j.recent, 0, 1)
	}
	j.recent = append(j.recent, rec)
	for s := range j.subs {
		select {
		case s.ch <- rec:
		default:
		}
	}
}

// Subscribe returns a channel replaying the job's buffered records followed
// by the live tail, plus a cancel function. The channel is closed after the
// terminal state record has been delivered.
func (j *Job) Subscribe() (<-chan StreamRecord, func()) {
	j.mu.Lock()
	s := &subscriber{ch: make(chan StreamRecord, streamBuffer+16)}
	// Replay first, under the same lock that orders publishes, so the
	// subscriber sees every record exactly once and in order.
	for _, rec := range j.recent {
		s.ch <- rec
	}
	terminal := j.state.Terminal()
	if terminal {
		close(s.ch)
	} else {
		j.subs[s] = struct{}{}
	}
	j.mu.Unlock()

	unsubscribed := false
	cancel := func() {
		j.mu.Lock()
		if !unsubscribed {
			unsubscribed = true
			if _, ok := j.subs[s]; ok {
				delete(j.subs, s)
				close(s.ch)
			}
		}
		j.mu.Unlock()
	}
	if terminal {
		return s.ch, func() {}
	}
	return s.ch, cancel
}

// closeSubscribers ends every live stream; called once the job is terminal.
func (j *Job) closeSubscribers() {
	j.mu.Lock()
	for s := range j.subs {
		delete(j.subs, s)
		close(s.ch)
	}
	j.mu.Unlock()
}
