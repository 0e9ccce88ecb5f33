package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcopt/internal/buildinfo"
	"mcopt/internal/runnerclient"
)

// The distributed tests drive real runnerclient.Runner loops against the
// real HTTP fleet API in-process. Both sides report buildinfo.Short() ==
// "devel" in test binaries, so the handshake passes without overrides.

// fleetConfig is a coordinator tuned for test-speed failure detection.
func fleetConfig() Config {
	return Config{
		LeaseTTL:   300 * time.Millisecond,
		RunnerTTL:  600 * time.Millisecond,
		LeaseChunk: 2,
	}
}

// startRunner launches an in-process fleet runner; the returned stop
// cancels it and waits for the loop to exit.
func startRunner(t *testing.T, ts *httptest.Server, name string, compute runnerclient.ComputeFunc) (stop func()) {
	t.Helper()
	if compute == nil {
		compute = (&ReplicaComputer{}).Compute
	}
	r := &runnerclient.Runner{
		Client: runnerclient.New(ts.URL, runnerclient.Options{
			Timeout: 5 * time.Second, MaxRetries: 3, Backoff: 5 * time.Millisecond,
		}),
		Name:        name,
		Fingerprint: fingerprintFor(t),
		Compute:     compute,
		Poll:        10 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		if err := <-done; err != nil {
			t.Errorf("runner %s: %v", name, err)
		}
	}
	t.Cleanup(stop)
	return stop
}

// fingerprintFor returns the fingerprint a default-config manager expects:
// both sides of an in-process test are the same binary, so buildinfo.Short()
// always matches.
func fingerprintFor(t *testing.T) string {
	t.Helper()
	return buildinfo.Short()
}

// localGolden computes a spec's result artifact on a plain single-node
// server — the bytes every distributed variant must reproduce.
func localGolden(t *testing.T, spec string) []byte {
	t.Helper()
	_, ts := testServer(t, Config{})
	id, code := submit(t, ts, spec, "")
	if code != 201 {
		t.Fatalf("golden submit: %d (%s)", code, id)
	}
	waitState(t, ts, id, StateDone)
	return getResult(t, ts, id)
}

func distSpec() string {
	return `{"problem":{"kind":"gola","cells":12,"nets":60},"budget":600,"runs":6,"seed":7}`
}

func TestDistributedResultMatchesLocal(t *testing.T) {
	golden := localGolden(t, distSpec())

	m, ts := testServer(t, fleetConfig())
	startRunner(t, ts, "r1", nil)
	startRunner(t, ts, "r2", nil)
	waitLive(t, m, 2)

	id, code := submit(t, ts, distSpec(), "")
	if code != 201 {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, id, StateDone)
	got := getResult(t, ts, id)
	if !bytes.Equal(got, golden) {
		t.Fatalf("distributed result differs from single-node run:\n--- local ---\n%s\n--- distributed ---\n%s", golden, got)
	}
	exp := scrape(t, ts)
	if v, _ := exp.Value("mcoptd_leases_granted_total", map[string]string{"mode": "fresh"}); v < 1 {
		t.Fatalf("leases_granted{fresh} = %v, want ≥ 1", v)
	}
	if v, _ := exp.Value("mcoptd_runner_registrations_total", nil); v != 2 {
		t.Fatalf("runner_registrations_total = %v, want 2", v)
	}
}

// waitLive blocks until the coordinator sees n live runners.
func waitLive(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.coord.live() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d live runners", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeadRunnerRangeIsReLeased(t *testing.T) {
	golden := localGolden(t, distSpec())

	m, ts := testServer(t, fleetConfig())
	// Runner 1 dies mid-grid: its first replica computes normally, its
	// second call kills the whole runner (compute, heartbeats, everything) —
	// an in-process kill -9. Its lease must expire and re-lease to runner 2.
	rc := &ReplicaComputer{}
	var calls atomic.Int64
	killed := make(chan struct{})
	var stop1 func()
	stop1 = startRunner(t, ts, "doomed", func(ctx context.Context, g *runnerclient.LeaseGrant, slot int) ([]byte, error) {
		if calls.Add(1) >= 2 {
			close(killed)
			return nil, context.Canceled
		}
		return rc.Compute(ctx, g, slot)
	})
	waitLive(t, m, 1)

	id, code := submit(t, ts, distSpec(), "")
	if code != 201 {
		t.Fatalf("submit: %d", code)
	}
	select {
	case <-killed:
		stop1() // the runner loop abandoned the window; cut its heartbeats
	case <-time.After(20 * time.Second):
		t.Fatal("doomed runner never reached its second slot")
	}
	startRunner(t, ts, "healthy", nil)

	waitState(t, ts, id, StateDone)
	got := getResult(t, ts, id)
	if !bytes.Equal(got, golden) {
		t.Fatal("result after dead-runner recovery differs from single-node run")
	}
	exp := scrape(t, ts)
	if v, _ := exp.Value("mcoptd_leases_expired_total", nil); v < 1 {
		t.Fatalf("leases_expired_total = %v, want ≥ 1 (the doomed runner's lease)", v)
	}
}

func TestZeroRunnersMidJobFallsBackToLocal(t *testing.T) {
	golden := localGolden(t, distSpec())

	m, ts := testServer(t, fleetConfig())
	// The runner registers (making the job start distributed), then dies
	// before computing anything. Once it goes stale the coordinator must
	// finish the grid itself.
	died := make(chan struct{})
	var once atomic.Bool
	stop := startRunner(t, ts, "ghost", func(ctx context.Context, g *runnerclient.LeaseGrant, slot int) ([]byte, error) {
		if once.CompareAndSwap(false, true) {
			close(died)
		}
		return nil, context.Canceled
	})
	waitLive(t, m, 1)

	id, code := submit(t, ts, distSpec(), "")
	if code != 201 {
		t.Fatalf("submit: %d", code)
	}
	select {
	case <-died:
		stop()
	case <-time.After(20 * time.Second):
		t.Fatal("ghost runner never acquired a lease")
	}

	waitState(t, ts, id, StateDone)
	if got := getResult(t, ts, id); !bytes.Equal(got, golden) {
		t.Fatal("local-fallback result differs from single-node run")
	}
	exp := scrape(t, ts)
	if v, _ := exp.Value("mcoptd_lease_commits_total", map[string]string{"result": "local"}); v < 1 {
		t.Fatalf("lease_commits{local} = %v, want ≥ 1 (fallback slots)", v)
	}
}

func TestRegisterRejectsMismatchedFingerprint(t *testing.T) {
	cfg := fleetConfig()
	cfg.Fingerprint = "coordinator-build"
	_, ts := testServer(t, cfg)
	c := runnerclient.New(ts.URL, runnerclient.Options{MaxRetries: 1, Backoff: time.Millisecond})
	_, err := c.Register(context.Background(), "r1", "runner-build")
	if !errors.Is(err, runnerclient.ErrVersionMismatch) {
		t.Fatalf("register with wrong fingerprint: %v, want ErrVersionMismatch", err)
	}
	var se *runnerclient.StatusError
	if !errors.As(err, &se) || se.Status != 409 {
		t.Fatalf("want 409 StatusError, got %v", err)
	}
	exp := scrape(t, ts)
	if v, _ := exp.Value("mcoptd_runner_rejected_total", map[string]string{"reason": "version"}); v != 1 {
		t.Fatalf("runner_rejected{version} = %v, want 1", v)
	}
}

// registerManual registers a bare client as a live runner, returning its ID.
// Register before submitting: with an empty fleet the manager starts
// computing the job in-process.
func registerManual(t *testing.T, c *runnerclient.Client) string {
	t.Helper()
	reg, err := c.Register(context.Background(), "manual", fingerprintFor(t))
	if err != nil {
		t.Fatal(err)
	}
	return reg.ID
}

// pollGrant acquires until the coordinator grants a lease.
func pollGrant(t *testing.T, c *runnerclient.Client, runnerID string) *runnerclient.LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, err := c.Acquire(context.Background(), runnerID)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			return g
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCommitIsIdempotentOverHTTP(t *testing.T) {
	cfg := fleetConfig()
	cfg.LeaseTTL = 5 * time.Second // roomy: this test drives the protocol by hand
	cfg.RunnerTTL = 15 * time.Second
	_, ts := testServer(t, cfg)
	c := runnerclient.New(ts.URL, runnerclient.Options{MaxRetries: 1, Backoff: time.Millisecond})
	rid := registerManual(t, c)
	if _, code := submit(t, ts, distSpec(), ""); code != 201 {
		t.Fatalf("submit: %d", code)
	}
	g := pollGrant(t, c, rid)
	payload, err := (&ReplicaComputer{}).Compute(context.Background(), g, g.Start)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Commit(context.Background(), g.Lease, g.Epoch, g.Start, payload); err != nil {
			t.Fatalf("commit attempt %d: %v", i+1, err)
		}
	}
	exp := scrape(t, ts)
	if v, _ := exp.Value("mcoptd_lease_commits_total", map[string]string{"result": "ok"}); v != 1 {
		t.Fatalf("lease_commits{ok} = %v, want 1", v)
	}
	if v, _ := exp.Value("mcoptd_lease_commits_total", map[string]string{"result": "duplicate"}); v != 1 {
		t.Fatalf("lease_commits{duplicate} = %v, want 1", v)
	}
}

func TestRenewAfterExpiryRejectedOverHTTP(t *testing.T) {
	cfg := fleetConfig()
	cfg.LeaseTTL = 100 * time.Millisecond
	cfg.RunnerTTL = 10 * time.Second // keep the runner "alive" so no local fallback races us
	_, ts := testServer(t, cfg)
	c := runnerclient.New(ts.URL, runnerclient.Options{MaxRetries: 1, Backoff: time.Millisecond})
	rid := registerManual(t, c)
	if _, code := submit(t, ts, distSpec(), ""); code != 201 {
		t.Fatalf("submit: %d", code)
	}
	g := pollGrant(t, c, rid)
	if err := c.Renew(context.Background(), g.Lease, g.Epoch); err != nil {
		t.Fatalf("renew inside TTL: %v", err)
	}
	time.Sleep(3 * cfg.LeaseTTL)
	err := c.Renew(context.Background(), g.Lease, g.Epoch)
	if !errors.Is(err, runnerclient.ErrLeaseLost) {
		t.Fatalf("renew after expiry: %v, want ErrLeaseLost", err)
	}
}

// TestGrantSpecRoundTrips pins that the spec bytes inside a grant decode to
// the same normalized spec the coordinator holds — the property that lets
// runners compile once per fingerprint.
func TestGrantSpecRoundTrips(t *testing.T) {
	cfg := fleetConfig()
	cfg.LeaseTTL = 5 * time.Second
	cfg.RunnerTTL = 15 * time.Second
	m, ts := testServer(t, cfg)
	c := runnerclient.New(ts.URL, runnerclient.Options{MaxRetries: 1, Backoff: time.Millisecond})
	rid := registerManual(t, c)
	if _, code := submit(t, ts, distSpec(), ""); code != 201 {
		t.Fatalf("submit: %d", code)
	}
	g := pollGrant(t, c, rid)
	var spec JobSpec
	if err := json.Unmarshal(g.Spec, &spec); err != nil {
		t.Fatal(err)
	}
	spec.Normalize()
	m.mu.Lock()
	var want *Job
	for _, j := range m.jobs {
		want = j
	}
	m.mu.Unlock()
	if spec.Fingerprint() != want.Spec.Fingerprint() {
		t.Fatal("grant spec fingerprint differs from the job's")
	}
}

// streamRecords reads a job's NDJSON event stream in the background; the
// returned channel yields every record once the stream ends.
func streamRecords(t *testing.T, ts *httptest.Server, id string) <-chan []StreamRecord {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []StreamRecord, 1)
	go func() {
		defer resp.Body.Close()
		var recs []StreamRecord
		dec := json.NewDecoder(resp.Body)
		for {
			var rec StreamRecord
			if dec.Decode(&rec) != nil {
				break
			}
			recs = append(recs, rec)
		}
		out <- recs
	}()
	return out
}

// waitProgress polls until the job has journaled at least n replicas.
func waitProgress(t *testing.T, ts *httptest.Server, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.DoneRuns >= n {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s in state %s with %d replica(s), want %d", id, st.State, st.DoneRuns, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetDeathFinishesWithinTwoSweeps lets a ghost runner take the whole
// grid and die. The first sweep that finds no live runner must compute
// every remaining slot in-process — not one slot per sweep — and stream
// their engine records like any in-process replica.
func TestFleetDeathFinishesWithinTwoSweeps(t *testing.T) {
	cfg := Config{LeaseTTL: 2 * time.Second, RunnerTTL: 200 * time.Millisecond}
	sweep := cfg.LeaseTTL / 2
	m, ts := testServer(t, cfg)
	took := make(chan struct{})
	var once atomic.Bool
	stop := startRunner(t, ts, "ghost", func(ctx context.Context, g *runnerclient.LeaseGrant, slot int) ([]byte, error) {
		if once.CompareAndSwap(false, true) {
			close(took)
		}
		return nil, context.Canceled
	})
	waitLive(t, m, 1)

	const runs = 8
	id, code := submit(t, ts, fmt.Sprintf(`{"problem":{"kind":"gola","cells":12,"nets":60},"budget":600,"runs":%d,"seed":7}`, runs), "")
	if code != 201 {
		t.Fatalf("submit: %d", code)
	}
	records := streamRecords(t, ts, id)
	select {
	case <-took:
		stop()
	case <-time.After(20 * time.Second):
		t.Fatal("ghost runner never acquired a lease")
	}
	stopped := time.Now()
	waitState(t, ts, id, StateDone)
	if d := time.Since(stopped); d > 2*sweep {
		t.Fatalf("job finished %v after the fleet died, want within two sweep intervals (%v)", d, 2*sweep)
	}

	seen := map[string]bool{}
	for _, rec := range <-records {
		if rec.Type == "event" {
			seen[rec.Event.Run] = true
		}
	}
	for i := 0; i < runs; i++ {
		if !seen[fmt.Sprintf("run@%d", i)] {
			t.Fatalf("no run@%d engine records for an in-process slot; saw %v", i, seen)
		}
	}
	if v, _ := scrape(t, ts).Value("mcoptd_lease_commits_total", map[string]string{"result": "local"}); v != runs {
		t.Fatalf("lease_commits{local} = %v, want %d", v, runs)
	}
}

// midJobSpec is sized so a test that reacts to the first committed
// replicas still finds the job in-process with replicas left to run.
func midJobSpec() string {
	return `{"problem":{"kind":"gola","cells":30,"nets":150},"budget":20000,"runs":6,"seed":11}`
}

// TestFleetTakesOverMidJob starts a job with an empty fleet and registers a
// runner once the manager has committed a replica in-process: the runner
// must lease the slots not yet started, and the artifact must still match
// a single-node run byte for byte. Two in-process workers put concurrent
// local commits beside the runner's.
func TestFleetTakesOverMidJob(t *testing.T) {
	golden := localGolden(t, midJobSpec())

	cfg := fleetConfig()
	cfg.RunWorkers = 2
	_, ts := testServer(t, cfg)
	id, code := submit(t, ts, midJobSpec(), "")
	if code != 201 {
		t.Fatalf("submit: %d", code)
	}
	waitProgress(t, ts, id, 1)
	startRunner(t, ts, "late", nil)

	waitState(t, ts, id, StateDone)
	if got := getResult(t, ts, id); !bytes.Equal(got, golden) {
		t.Fatal("result after hand-over differs from single-node run")
	}
	exp := scrape(t, ts)
	if v, _ := exp.Value("mcoptd_leases_granted_total", map[string]string{"mode": "fresh"}); v < 1 {
		t.Fatalf("leases_granted{fresh} = %v, want ≥ 1 (the late runner's windows)", v)
	}
	if v, _ := exp.Value("mcoptd_lease_commits_total", map[string]string{"result": "local"}); v < 1 {
		t.Fatalf("lease_commits{local} = %v, want ≥ 1 (slots computed before hand-over)", v)
	}
}
