package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mcopt/internal/obs"
)

// loadServer runs a small mixed workload so every metric family has data:
// a done job, a validation rejection, and an idempotent replay.
func loadServer(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	id, code := submit(t, ts, smallSpec(), "obs-key")
	if code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}
	if _, code := submit(t, ts, smallSpec(), "obs-key"); code != http.StatusOK {
		t.Fatalf("idempotent replay: %d", code)
	}
	if _, code := submit(t, ts, `{"problem":{"kind":"nosuch"}}`, ""); code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", code)
	}
	waitState(t, ts, id, StateDone)
	return id
}

func scrape(t *testing.T, ts *httptest.Server) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, obs.ContentType)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("/metrics is not well-formed: %v\n%s", err, page)
	}
	return exp
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := loadServer(t, ts)

	exp := scrape(t, ts)

	// Request counters and latency histograms per route/status.
	if v, ok := exp.Value("mcoptd_http_requests_total",
		map[string]string{"route": "POST /v1/jobs", "code": "201"}); !ok || v < 1 {
		t.Fatalf("requests_total{201} = %v, %v", v, ok)
	}
	if v, ok := exp.Value("mcoptd_http_requests_total",
		map[string]string{"route": "POST /v1/jobs", "code": "400"}); !ok || v < 1 {
		t.Fatalf("requests_total{400} = %v, %v", v, ok)
	}
	if v, ok := exp.Value("mcoptd_http_request_seconds_count",
		map[string]string{"route": "GET /v1/jobs/{id}"}); !ok || v < 1 {
		t.Fatalf("latency histogram for status route = %v, %v", v, ok)
	}

	// Job lifecycle metrics.
	if v, _ := exp.Value("mcoptd_jobs_submitted_total", nil); v != 1 {
		t.Fatalf("submitted = %v, want 1 (replay and rejection excluded)", v)
	}
	if v, _ := exp.Value("mcoptd_idempotency_hits_total", nil); v != 1 {
		t.Fatalf("idempotency hits = %v", v)
	}
	if v, _ := exp.Value("mcoptd_submit_rejected_total", map[string]string{"reason": "invalid"}); v != 1 {
		t.Fatalf("rejected{invalid} = %v", v)
	}
	if v, _ := exp.Value("mcoptd_jobs_completed_total", map[string]string{"outcome": "done"}); v != 1 {
		t.Fatalf("completed{done} = %v", v)
	}
	if v, _ := exp.Value("mcoptd_jobs", map[string]string{"state": "done"}); v != 1 {
		t.Fatalf("jobs{done} gauge = %v", v)
	}
	if v, _ := exp.Value("mcoptd_job_queue_wait_seconds_count", nil); v != 1 {
		t.Fatalf("queue wait count = %v", v)
	}
	if v, _ := exp.Value("mcoptd_job_run_seconds_count", nil); v != 1 {
		t.Fatalf("run seconds count = %v", v)
	}
	if v, _ := exp.Value("mcoptd_workers", nil); v != 2 {
		t.Fatalf("workers gauge = %v, want default 2", v)
	}

	// Engine bridge: per-level acceptance counters and throughput.
	proposed := exp.Sum("mcopt_engine_proposals_total", map[string]string{"decision": "proposed"})
	if proposed <= 0 {
		t.Fatal("engine proposals did not reach the registry")
	}
	lvl1 := exp.Sum("mcopt_engine_level_proposals_total", map[string]string{"level": "1"})
	acc1 := exp.Sum("mcopt_engine_level_accepted_total", map[string]string{"level": "1"})
	if lvl1 <= 0 || acc1 < 0 || acc1 > lvl1 {
		t.Fatalf("level-1 acceptance: accepted %v of %v", acc1, lvl1)
	}
	if v, _ := exp.Value("mcopt_engine_runs_completed_total", nil); v != 2 {
		t.Fatalf("engine runs completed = %v, want 2 replicas", v)
	}

	// Version const label on every sample (buildinfo).
	for name, f := range exp.Families {
		for _, s := range f.Samples {
			if s.Labels["version"] == "" {
				t.Fatalf("%s sample missing version label: %v", name, s.Labels)
			}
		}
	}

	_ = id
}

func TestTraceEndpointAndFile(t *testing.T) {
	m, ts := testServer(t, Config{})
	id := loadServer(t, ts)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	spans, err := obs.ReadSpans(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string][]obs.Span{}
	ids := map[int]obs.Span{}
	for _, s := range spans {
		if s.Trace != id {
			t.Fatalf("span trace %q, want %q", s.Trace, id)
		}
		if s.DurNS < 0 {
			t.Fatalf("span %s still open in a terminal trace", s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
		ids[s.ID] = s
	}
	// Full submit → queue → run → replica[i] → commit timeline.
	if len(byName["job"]) != 1 || len(byName["queue"]) != 1 || len(byName["run"]) != 1 ||
		len(byName["replica"]) != 2 || len(byName["commit"]) != 1 {
		t.Fatalf("span inventory: %v", spanNames(spans))
	}
	root := byName["job"][0]
	if root.Attrs["outcome"] != "done" || root.Attrs["kind"] != "gola" || root.Attrs["runs"] != "2" {
		t.Fatalf("root attrs %v", root.Attrs)
	}
	if byName["queue"][0].Parent != root.ID {
		t.Fatal("queue span not parented to job")
	}
	run := byName["run"][0]
	if run.Parent != root.ID {
		t.Fatal("run span not parented to job")
	}
	seen := map[string]bool{}
	for _, r := range byName["replica"] {
		if r.Parent != run.ID {
			t.Fatal("replica span not parented to run")
		}
		seen[r.Attrs["run"]] = true
	}
	if !seen["0"] || !seen["1"] {
		t.Fatalf("replica indices %v, want 0 and 1", seen)
	}
	if byName["commit"][0].Parent != run.ID {
		t.Fatal("commit span not parented to run")
	}
	// Queue precedes run; run covers replicas.
	q := byName["queue"][0]
	if q.StartNS+q.DurNS > run.StartNS {
		t.Fatal("queue span overlaps run span")
	}

	// The trace was committed to the job directory and survives a restart.
	data, err := m.TraceData(id)
	if err != nil {
		t.Fatal(err)
	}
	fileSpans, err := obs.ReadSpans(bytes.NewReader(data))
	if err != nil || len(fileSpans) != len(spans) {
		t.Fatalf("trace file: %d spans, err %v; want %d", len(fileSpans), err, len(spans))
	}

	// Unknown job is 404.
	r2, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %d", r2.StatusCode)
	}
}

func spanNames(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestObsDisabledDeterminism pins the contract the smoke test checks over a
// real socket: with observability off the trace endpoint 404s, but the
// result artifact is byte-identical to an obs-on run of the same spec.
func TestObsDisabledDeterminism(t *testing.T) {
	_, tsOn := testServer(t, Config{})
	idOn, _ := submit(t, tsOn, smallSpec(), "")
	waitState(t, tsOn, idOn, StateDone)
	resOn := getResult(t, tsOn, idOn)

	_, tsOff := testServer(t, Config{DisableObs: true})
	idOff, _ := submit(t, tsOff, smallSpec(), "")
	waitState(t, tsOff, idOff, StateDone)
	resOff := getResult(t, tsOff, idOff)

	if !bytes.Equal(resOn, resOff) {
		t.Fatal("enabling obs changed result bytes")
	}

	resp, err := http.Get(tsOff.URL + "/v1/jobs/" + idOff + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace with obs disabled: %d, want 404", resp.StatusCode)
	}
	// /metrics still serves (lifecycle + HTTP families, no engine data).
	exp := scrape(t, tsOff)
	if v, _ := exp.Value("mcoptd_jobs_completed_total", map[string]string{"outcome": "done"}); v != 1 {
		t.Fatalf("completed{done} with obs disabled = %v", v)
	}
	if v := exp.Sum("mcopt_engine_proposals_total", nil); v != 0 {
		t.Fatalf("engine metrics recorded despite DisableObs: %v", v)
	}
}

// TestTraceLiveSnapshot checks the endpoint on a still-running job: open
// spans are marked dur_ns -1 and the timeline grows as replicas finish.
func TestTraceLiveSnapshot(t *testing.T) {
	_, ts := testServer(t, Config{})
	id, _ := submit(t, ts, slowSpec(), "")
	waitState(t, ts, id, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	spans, err := obs.ReadSpans(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var root *obs.Span
	for i := range spans {
		if spans[i].Name == "job" {
			root = &spans[i]
		}
	}
	if root == nil || root.DurNS != -1 {
		t.Fatalf("running job's root span should be open: %+v", spans)
	}

	// Cancel; the committed trace closes every span and records the outcome.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, id, StateCancelled)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	final, err := obs.ReadSpans(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range final {
		if s.DurNS < 0 {
			t.Fatalf("span %s open in cancelled job's trace", s.Name)
		}
		if s.Name == "job" && s.Attrs["outcome"] != "cancelled" {
			t.Fatalf("root outcome %q", s.Attrs["outcome"])
		}
	}
}

// TestStreamRecordJSONStable guards the NDJSON wire format against
// accidental field renames now that obs consumers parse it.
func TestStreamRecordJSONStable(t *testing.T) {
	rec := StreamRecord{Type: "state", Job: "j", State: StateQueued, Done: 1, Total: 2}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"type":"state","job":"j","state":"queued","done":1,"total":2}`
	if string(data) != want {
		t.Fatalf("wire form %s, want %s", data, want)
	}
}
