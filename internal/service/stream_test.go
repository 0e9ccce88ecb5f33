package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"mcopt/internal/metrics"
)

// lineSink is a concurrency-safe writer that collects a stream's bytes.
type lineSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *lineSink) snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Clone(s.buf.Bytes())
}

// waitLines polls until the sink holds at least n lines.
func (s *lineSink) waitLines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for bytes.Count(s.snapshot(), []byte("\n")) < n {
		if time.Now().After(deadline) {
			t.Fatalf("sink has %d lines, want %d", bytes.Count(s.snapshot(), []byte("\n")), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// lastLines returns the trailing n lines of an NDJSON body.
func lastLines(body []byte, n int) []byte {
	lines := bytes.SplitAfter(body, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	return bytes.Join(lines[max(len(lines)-n, 0):], nil)
}

// TestReplayWindowServesLastLines publishes well past the replay window:
// a subscriber attached late — while the job runs, and again after it
// finished — must receive exactly the last streamBuffer lines, in order and
// byte-identical to what a subscriber attached from the start received.
func TestReplayWindowServesLastLines(t *testing.T) {
	const records = 5000
	j := newJob("window", "", 0, JobSpec{Runs: 1}, &replayCompressor{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var live lineSink
	liveDone := make(chan error, 1)
	go func() { liveDone <- j.streamTo(ctx, &live, func() {}) }()
	// Wait for the subscription before publishing, so the live reader sees
	// every record; publish in chunks it can keep up with.
	for {
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < records; i++ {
		j.publishEvent(metrics.Record{Run: "run@0", Kind: "descent", Move: int64(i), Cost: float64(i % 97)})
		if (i+1)%500 == 0 {
			live.waitLines(t, i+1)
		}
	}

	// A late subscriber on the running job: the window, then the live tail.
	var late lineSink
	lateCtx, lateCancel := context.WithCancel(ctx)
	lateDone := make(chan error, 1)
	go func() { lateDone <- j.streamTo(lateCtx, &late, func() {}) }()
	late.waitLines(t, streamBuffer)
	lateCancel()
	<-lateDone
	if got, want := late.snapshot(), lastLines(live.snapshot(), streamBuffer); !bytes.Equal(got, want) {
		t.Fatalf("late subscriber got %d bytes, want the live stream's last %d lines (%d bytes)",
			len(got), streamBuffer, len(want))
	}

	// Finish the job: the terminal record joins the window, which is then
	// compressed; a subscriber of the finished job reads it back.
	j.setState(StateDone, "")
	j.closeSubscribers()
	if err := <-liveDone; err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(live.snapshot(), []byte("\n")); got != records+1 {
		t.Fatalf("live subscriber got %d lines, want %d", got, records+1)
	}
	var finished bytes.Buffer
	if err := j.streamTo(ctx, &finished, func() {}); err != nil {
		t.Fatal(err)
	}
	if got, want := finished.Bytes(), lastLines(live.snapshot(), streamBuffer); !bytes.Equal(got, want) {
		t.Fatalf("finished job replays %d bytes, want the live stream's last %d lines (%d bytes)",
			len(got), streamBuffer, len(want))
	}
}

// TestFinishedEventsMatchLive: once a job is done, GET /events serves its
// compressed replay; the body must equal, byte for byte, what a subscriber
// attached at submit received over the live stream.
func TestFinishedEventsMatchLive(t *testing.T) {
	_, ts := testServer(t, Config{})
	id, _ := submit(t, ts, smallSpec(), "")
	get := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	live := get()
	waitState(t, ts, id, StateDone)
	finished := get()
	if len(live) == 0 || !bytes.Equal(finished, live) {
		t.Fatalf("finished job's stream (%d bytes) differs from the live stream (%d bytes):\n%s\n---\n%s",
			len(finished), len(live), finished, live)
	}
}

// TestTraceServedAfterSpansDropped: a finished job's spans leave memory once
// trace.jsonl is committed, and the trace endpoint serves the file.
func TestTraceServedAfterSpansDropped(t *testing.T) {
	m, ts := testServer(t, Config{})
	id, _ := submit(t, ts, smallSpec(), "")
	waitState(t, ts, id, StateDone)
	j, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	// The terminal state is published before the trace commits.
	deadline := time.Now().Add(10 * time.Second)
	for len(j.trace.Snapshot()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("finished job still holds %d spans", len(j.trace.Snapshot()))
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d: %s", resp.StatusCode, body)
	}
	for _, name := range []string{`"name":"job"`, `"name":"replica"`, `"name":"commit"`} {
		if !bytes.Contains(body, []byte(name)) {
			t.Fatalf("committed trace lacks %s:\n%s", name, body)
		}
	}
}

// fillRandom sets every field of the struct v points to from the pools,
// recursing through pointers to structs; a field of any other kind fails
// the test, so a field added to the stream's types cannot go unchecked.
func fillRandom(t *testing.T, r *rand.Rand, v reflect.Value) {
	t.Helper()
	strs := []string{"", "state", "run@3", "descent", "done", "a<b>&c", `quote " and \\`,
		"tab\tnew\nline\b\f", "\u2028\u2029", "héllo", "bad \xff utf8", "\x01ctl"}
	ints := []int64{0, 1, -1, 7, 1 << 40, -(1 << 33)}
	floats := []float64{0, 1, -1, 0.5, 76.34375, 1e-7, -3e-9, 1e21, 1.5e300, 123456789.125, 1e20, 1e-6, 5e-324}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(strs[r.IntN(len(strs))])
		case reflect.Int, reflect.Int64:
			f.SetInt(ints[r.IntN(len(ints))])
		case reflect.Float64:
			f.SetFloat(floats[r.IntN(len(floats))])
		case reflect.Pointer:
			if r.IntN(3) == 0 {
				continue
			}
			f.Set(reflect.New(f.Type().Elem()))
			fillRandom(t, r, f.Elem())
		default:
			t.Fatalf("field %s of %s has kind %s; teach appendRecord and this test about it",
				v.Type().Field(i).Name, v.Type(), f.Kind())
		}
	}
}

// TestAppendRecordMatchesEncoder pins the stream's encoder to the bytes
// json.Encoder writes for the same record, across every field, escaped
// strings and float magnitudes; a record with a NaN or infinity is refused,
// as json.Encoder refuses it.
func TestAppendRecordMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 17))
	for i := 0; i < 5000; i++ {
		var rec StreamRecord
		fillRandom(t, r, reflect.ValueOf(&rec).Elem())
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&rec); err != nil {
			t.Fatal(err)
		}
		got, ok := appendRecord(nil, &rec)
		if !ok || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("record %+v (event %+v):\nappendRecord %q (ok %v)\njson.Encoder %q", rec, rec.Event, got, ok, want.Bytes())
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := StreamRecord{Type: "event", Job: "j", Event: &metrics.Record{Kind: "best", Cost: bad}}
		if err := json.NewEncoder(io.Discard).Encode(&rec); err == nil {
			t.Fatalf("json.Encoder accepted cost %v", bad)
		}
		if _, ok := appendRecord(nil, &rec); ok {
			t.Fatalf("appendRecord accepted cost %v", bad)
		}
	}
}
