package main

import (
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcopt/internal/obs"
)

// span is one timed interval, from the benchmark's own recorder or from a
// job's server timeline. Start and end are nanoseconds on one clock per
// trace; spans of one trace share an ID space.
type span struct {
	trace      string
	id, parent int
	name       string
	start, end int64
	status     int // HTTP status of an RPC span, 0 otherwise
	run        int // replica index of a server "replica" span, else -1
}

// recorder keeps the benchmark's spans in memory; they are summarised when
// the run ends. Safe for concurrent use. on gates recording, so one process
// can run an untraced and a traced phase back to back.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// add records a finished span and returns its ID.
func (r *recorder) add(trace string, parent int, name string, start, end time.Time, status int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{trace: trace, id: r.next, parent: parent, name: name,
		start: r.since(start), end: r.since(end), status: status})
	return r.next
}

func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// serverSpans converts a job's server timeline. Open spans (dur -1) are
// dropped: a terminal job's committed trace closes every span.
func serverSpans(in []obs.Span) []span {
	out := make([]span, 0, len(in))
	for _, s := range in {
		if s.DurNS < 0 {
			continue
		}
		run := -1
		if s.Name == "replica" {
			if n, err := strconv.Atoi(s.Attrs["run"]); err == nil {
				run = n
			}
		}
		out = append(out, span{trace: "server/" + s.Trace, id: s.ID, parent: s.Parent, name: s.Name,
			start: s.StartNS, end: s.StartNS + s.DurNS, run: run})
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		trace string
		id    int
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			k := key{s.trace, s.parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[key{s.trace, s.id}]
		slices.SortFunc(kids, func(a, b span) int { return int(a.start - b.start) })
		covered, cur := int64(0), s.start
		for _, c := range kids {
			lo, hi := max(c.start, cur), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.name] += time.Duration(s.end - s.start - covered)
	}
	return out
}

// durationsMS returns the durations of the named spans in milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// timedTransport wraps a runner's HTTP transport. It always reports runner
// registrations (set-up waits for them); with the recorder on, it records
// one span per fleet RPC, named after the route, with its status code.
type timedTransport struct {
	base       http.RoundTripper
	runner     string
	rec        *recorder
	registered chan<- struct{}
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	path := req.URL.Path
	if path == "/v1/runners" && resp.StatusCode == http.StatusCreated {
		select {
		case t.registered <- struct{}{}:
		default:
		}
	}
	if t.rec.on.Load() {
		var name string
		switch {
		case strings.HasSuffix(path, "/leases"):
			name = "runner.acquire"
		case strings.HasSuffix(path, "/renew"):
			name = "runner.renew"
		case strings.HasSuffix(path, "/commit"):
			name = "runner.commit"
		}
		if name != "" {
			t.rec.add("runner/"+t.runner, 0, name, start, time.Now(), resp.StatusCode)
		}
	}
	return resp, nil
}
