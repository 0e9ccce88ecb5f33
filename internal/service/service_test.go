package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	// The service layer itself is problem-agnostic; the tests exercise the
	// built-in kinds, which register themselves on import.
	_ "mcopt/internal/linarr"
	_ "mcopt/internal/partition"
	_ "mcopt/internal/pmedian"
	_ "mcopt/internal/tsp"
)

// testServer wires a manager and its HTTP handler over a fresh data dir.
func testServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		stopCtx, cancel := testContext(t)
		defer cancel()
		m.Stop(stopCtx)
	})
	return m, ts
}

func smallSpec() string {
	return `{"problem":{"kind":"gola","cells":12,"nets":60},"budget":600,"runs":2,"seed":7}`
}

// slowSpec is a job big enough to still be running when the test reacts.
func slowSpec() string {
	return `{"problem":{"kind":"gola","cells":60,"nets":300},"budget":2000000000,"runs":1}`
}

func submit(t *testing.T, ts *httptest.Server, spec, key string) (string, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return string(body), resp.StatusCode
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("submit response %q: %v", body, err)
	}
	return ack.ID, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state, which
// then must be want).
func waitState(t *testing.T, ts *httptest.Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %d: %s", id, resp.StatusCode, data)
	}
	return data
}

func TestSubmitRunResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	id, code := submit(t, ts, smallSpec(), "")
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d, want 201", code)
	}
	st := waitState(t, ts, id, StateDone)
	if st.DoneRuns != 2 || st.TotalRuns != 2 {
		t.Fatalf("done runs %d/%d, want 2/2", st.DoneRuns, st.TotalRuns)
	}
	if st.BestCost == nil {
		t.Fatal("done status missing best_cost")
	}
	if !strings.Contains(st.Problem, "gola") {
		t.Fatalf("problem description %q", st.Problem)
	}

	data := getResult(t, ts, id)
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result artifact: %v", err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("result has %d runs, want 2", len(res.Runs))
	}
	for i, rr := range res.Runs {
		if rr.Run != i {
			t.Fatalf("runs[%d].run = %d", i, rr.Run)
		}
		if rr.BestCost > rr.InitialCost {
			t.Fatalf("runs[%d]: best %g > initial %g", i, rr.BestCost, rr.InitialCost)
		}
		if len(rr.Solution) != 12 {
			t.Fatalf("runs[%d]: solution length %d, want 12 cells", i, len(rr.Solution))
		}
	}
	if res.BestCost != res.Runs[res.BestRun].BestCost {
		t.Fatalf("best_cost %g does not match best_run %d", res.BestCost, res.BestRun)
	}
	if got := getResult(t, ts, id); !bytes.Equal(got, data) {
		t.Fatal("result artifact changed between reads")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []string{
		`{`,
		`{"problem":{"kind":"nosuch"}}`,
		`{"problem":{"kind":"gola"},"strategy":"fig3"}`,
		`{"problem":{"kind":"gola"},"g":"No Such Class"}`,
		`{"problem":{"kind":"gola"},"g":"Metropolis","ys":[1,2]}`,
		`{"problem":{"kind":"tsp"},"g":"[COHO83a]"}`,
		`{"problem":{"kind":"pmedian","n":5,"p":9}}`,
		`{"problem":{"kind":"gola"},"unknown_field":1}`,
		`{"problem":{"kind":"gola","netlist":"not a netlist"}}`,
	}
	for _, spec := range cases {
		if body, code := submit(t, ts, spec, ""); code != http.StatusBadRequest {
			t.Errorf("spec %s: code %d (%s), want 400", spec, code, body)
		}
	}
}

func TestIdempotencyKey(t *testing.T) {
	_, ts := testServer(t, Config{})
	id1, code1 := submit(t, ts, smallSpec(), "alpha")
	id2, code2 := submit(t, ts, smallSpec(), "alpha")
	if code1 != http.StatusCreated || code2 != http.StatusOK {
		t.Fatalf("codes %d/%d, want 201/200", code1, code2)
	}
	if id1 != id2 {
		t.Fatalf("idempotent resubmit returned a new job: %s vs %s", id1, id2)
	}
	id3, _ := submit(t, ts, smallSpec(), "beta")
	if id3 == id1 {
		t.Fatal("distinct keys shared a job")
	}
	waitState(t, ts, id1, StateDone)
	waitState(t, ts, id3, StateDone)
}

func TestEventsStream(t *testing.T) {
	_, ts := testServer(t, Config{})
	id, _ := submit(t, ts, smallSpec(), "")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var states []State
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		if rec.Job != id {
			t.Fatalf("record for job %q, want %q", rec.Job, id)
		}
		switch rec.Type {
		case "state":
			states = append(states, rec.State)
		case "event":
			kinds[rec.Event.Kind]++
			if !strings.HasPrefix(rec.Event.Run, "run@") {
				t.Fatalf("event run label %q", rec.Event.Run)
			}
		default:
			t.Fatalf("unknown record type %q", rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("states %v, want trailing done", states)
	}
	if kinds["start"] != 2 || kinds["end"] != 2 {
		t.Fatalf("event kinds %v, want 2 start and 2 end (one per replica)", kinds)
	}
	if kinds["propose"] != 0 || kinds["accept"] != 0 || kinds["reject"] != 0 {
		t.Fatalf("per-proposal events leaked into the stream: %v", kinds)
	}

	// A watcher attaching after completion replays the buffered stream.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(replay, []byte(`"state":"done"`)) {
		t.Fatalf("late replay missing terminal record:\n%s", replay)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	id, _ := submit(t, ts, slowSpec(), "")
	waitState(t, ts, id, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: code %d", resp.StatusCode)
	}
	waitState(t, ts, id, StateCancelled)

	// Result of a cancelled job is a conflict.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: code %d, want 409", rr.StatusCode)
	}

	// Cancelling again is a no-op.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel: code %d", resp2.StatusCode)
	}

	// Unknown job is 404.
	req3, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: code %d, want 404", resp3.StatusCode)
	}
}

func TestBackpressure(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxQueue: 1})
	running, _ := submit(t, ts, slowSpec(), "")
	waitState(t, ts, running, StateRunning)
	queued, code := submit(t, ts, slowSpec(), "")
	if code != http.StatusCreated {
		t.Fatalf("second submit: code %d", code)
	}
	body, code := submit(t, ts, slowSpec(), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: code %d (%s), want 429", code, body)
	}

	// Cancelling the queued job frees the queue slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := getStatus(t, ts, queued); st.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if _, code := submit(t, ts, slowSpec(), ""); code != http.StatusCreated {
		t.Fatalf("submit after freeing the queue: code %d", code)
	}
}

func TestProbesAndMetrics(t *testing.T) {
	m, ts := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d", path, resp.StatusCode)
		}
	}

	id, _ := submit(t, ts, smallSpec(), "")
	waitState(t, ts, id, StateDone)

	stopCtx, cancel := testContext(t)
	defer cancel()
	if err := m.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: code %d, want 503", ready.StatusCode)
	}
	if _, code := submit(t, ts, smallSpec(), ""); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: code %d, want 503", code)
	}
}

func TestSpecFingerprint(t *testing.T) {
	base := func() JobSpec {
		s := JobSpec{Problem: ProblemSpec{Kind: KindGOLA}}
		s.Normalize()
		return s
	}
	a, b := base(), base()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal specs, different fingerprints")
	}
	mutations := []func(*JobSpec){
		func(s *JobSpec) { s.Budget = 2401 },
		func(s *JobSpec) { s.Runs = 2 },
		func(s *JobSpec) { s.Seed = 2 },
		func(s *JobSpec) { s.Strategy = "fig2" },
		func(s *JobSpec) { s.G = "Metropolis" },
		func(s *JobSpec) { s.Ys = []float64{1.5} },
		func(s *JobSpec) { s.Problem.Cells = 16 },
		func(s *JobSpec) { s.Problem.Seed = 9 },
	}
	seen := map[uint64]bool{a.Fingerprint(): true}
	for i, mutate := range mutations {
		s := base()
		mutate(&s)
		fp := s.Fingerprint()
		if seen[fp] {
			t.Fatalf("mutation %d collided with an earlier fingerprint", i)
		}
		seen[fp] = true
	}
}

func TestAllProblemKinds(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	specs := map[string]string{
		"nola":      `{"problem":{"kind":"nola","cells":12,"nets":40},"budget":400}`,
		"partition": `{"problem":{"kind":"partition","cells":16,"nets":48},"budget":400,"g":"[COHO83a]"}`,
		"tsp":       `{"problem":{"kind":"tsp","n":20},"budget":400,"strategy":"fig2"}`,
		"pmedian":   `{"problem":{"kind":"pmedian","n":20,"p":3},"budget":400,"g":"Metropolis"}`,
		"inline": fmt.Sprintf(`{"problem":{"kind":"gola","netlist":%q},"budget":200}`,
			"cells 4\nnet 0 1\nnet 1 2\nnet 2 3\n"),
	}
	ids := map[string]string{}
	for name, spec := range specs {
		id, code := submit(t, ts, spec, "")
		if code != http.StatusCreated {
			t.Fatalf("%s: submit code %d (%s)", name, code, id)
		}
		ids[name] = id
	}
	for name, id := range ids {
		st := waitState(t, ts, id, StateDone)
		if st.BestCost == nil {
			t.Fatalf("%s: done without best_cost", name)
		}
	}
}
