package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace spans record where a job's wall-clock time goes — queue wait vs.
// replica runs vs. commit — as JSONL: one Span object per line, with
// integer span/parent IDs and durations measured on the monotonic clock.
// Start times are nanoseconds since the trace began (not absolute
// wall-clock), so a trace file is meaningful on any machine and leaks no
// submission timestamps; the result artifact stays wall-clock-free and
// byte-identical with or without tracing.

// Span is one timed operation inside a trace.
type Span struct {
	// Trace is the trace ID (the service uses the job ID).
	Trace string `json:"trace"`
	// ID is the span's 1-based ID within the trace; Parent is the enclosing
	// span's ID, 0 for a root.
	ID     int `json:"span"`
	Parent int `json:"parent,omitempty"`
	// Name labels the operation ("job", "queue", "replica", "commit").
	Name string `json:"name"`
	// StartNS is the span's start, in monotonic nanoseconds since the trace
	// began. DurNS is the span's duration; -1 marks a span still open when
	// the trace was snapshotted.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Attrs carries small bounded annotations (replica index, outcome).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace accumulates spans. Safe for concurrent use: replica spans start and
// end from scheduler workers.
type Trace struct {
	mu    sync.Mutex
	id    string
	t0    time.Time // monotonic anchor
	next  int
	spans []Span      // indexed in creation order
	open  map[int]int // span ID → index into spans
}

// NewTrace starts a trace; the clock starts now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, t0: time.Now(), open: map[int]int{}}
}

// Start opens a span under parent (0 for a root) and returns its ID.
func (t *Trace) Start(parent int, name string, attrs map[string]string) int {
	since := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	if t.open == nil {
		t.open = map[int]int{}
	}
	t.open[id] = len(t.spans)
	t.spans = append(t.spans, Span{
		Trace: t.id, ID: id, Parent: parent, Name: name,
		StartNS: since, DurNS: -1, Attrs: attrs,
	})
	return id
}

// End closes a span. Ending an unknown or already-ended span is a no-op, so
// shutdown paths can close defensively.
func (t *Trace) End(id int) {
	since := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	t.spans[i].DurNS = since - t.spans[i].StartNS
}

// EndOpen closes every span still open, as of now. Terminal flush paths
// call it so a cancelled or failed job's trace file has no dangling spans.
func (t *Trace) EndOpen() {
	since := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, i := range t.open {
		t.spans[i].DurNS = since - t.spans[i].StartNS
		delete(t.open, id)
	}
}

// Drop releases every recorded span, for a caller that has committed the
// timeline elsewhere. The trace stays usable: span IDs keep counting, and
// later snapshots hold only spans started after the drop.
func (t *Trace) Drop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.open = nil, nil
}

// Annotate merges attrs into an open or closed span.
func (t *Trace) Annotate(id int, attrs map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].ID == id {
			if t.spans[i].Attrs == nil {
				t.spans[i].Attrs = map[string]string{}
			}
			for k, v := range attrs {
				t.spans[i].Attrs[k] = v
			}
			return
		}
	}
}

// Snapshot returns the spans so far, sorted by start time then ID. Spans
// still open have DurNS == -1.
func (t *Trace) Snapshot() []Span {
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteJSONL renders the snapshot as one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	return WriteSpans(w, t.Snapshot())
}

// WriteSpans renders spans as JSONL.
func WriteSpans(w io.Writer, spans []Span) error {
	for _, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans parses a JSONL span stream — the offline half of the round
// trip, used by tests and by anyone reconstructing a job timeline.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
