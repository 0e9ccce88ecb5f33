package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcopt/internal/checkpoint"
)

func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// resumeSpec is sized so that a six-replica job spans enough wall time for
// the test to interrupt it between replicas.
func resumeSpec() string {
	return `{"problem":{"kind":"gola","cells":30,"nets":150},"budget":80000,"runs":6,"seed":3}`
}

// TestResumeByteIdentical is the durability contract end to end: a job
// interrupted by a server shutdown mid-grid and finished by a fresh server
// over the same data directory must commit a result artifact byte-identical
// to an uninterrupted run of the same spec.
func TestResumeByteIdentical(t *testing.T) {
	// Golden: an uninterrupted run in its own data directory.
	_, goldenTS := testServer(t, Config{})
	goldenID, _ := submit(t, goldenTS, resumeSpec(), "")
	waitState(t, goldenTS, goldenID, StateDone)
	golden := getResult(t, goldenTS, goldenID)

	// Interrupted: same spec, drained mid-job.
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewHandler(m1, HandlerConfig{}))
	id, _ := submit(t, ts1, resumeSpec(), "")

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts1, id)
		if st.DoneRuns >= 1 {
			if st.State == StateDone {
				t.Log("job finished before the drain; resume path not exercised mid-grid")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job made no progress (state %s)", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	stopCtx, cancel := testContext(t)
	if err := m1.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	ts1.Close()

	interrupted := getStatusDirect(t, m1, id)
	if interrupted.State != StateQueued && interrupted.State != StateDone {
		t.Fatalf("drained job in state %s, want queued (or done if it raced ahead)", interrupted.State)
	}
	partial := interrupted.DoneRuns
	t.Logf("drained with %d/%d replicas journaled", partial, interrupted.TotalRuns)

	// Restart over the same directory: the job must resume and finish
	// without resubmission.
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewHandler(m2, HandlerConfig{}))
	defer func() {
		ts2.Close()
		stopCtx, cancel := testContext(t)
		defer cancel()
		m2.Stop(stopCtx)
	}()

	st := waitState(t, ts2, id, StateDone)
	if st.DoneRuns != st.TotalRuns {
		t.Fatalf("resumed job finished with %d/%d replicas", st.DoneRuns, st.TotalRuns)
	}
	resumed := getResult(t, ts2, id)
	if !bytes.Equal(resumed, golden) {
		t.Fatalf("resumed result differs from uninterrupted run\ngolden:  %d bytes\nresumed: %d bytes", len(golden), len(resumed))
	}

	// A third open must see the job done without re-running anything.
	m3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stopCtx, cancel := testContext(t)
		defer cancel()
		m3.Stop(stopCtx)
	}()
	j, err := m3.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != StateDone {
		t.Fatalf("reopened done job in state %s", j.State())
	}
	third, err := m3.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third, golden) {
		t.Fatal("result artifact changed across restarts")
	}
}

func getStatusDirect(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	j, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return j.Status()
}

// TestRestartPreservesTerminalStates reopens a data directory holding a
// done, a failed-equivalent (cancelled), and an unfinished job, and checks
// each is restored into the right state.
func TestRestartPreservesTerminalStates(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewHandler(m1, HandlerConfig{}))

	doneID, _ := submit(t, ts1, smallSpec(), "done-key")
	waitState(t, ts1, doneID, StateDone)

	cancelID, _ := submit(t, ts1, slowSpec(), "")
	waitState(t, ts1, cancelID, StateRunning)
	if _, err := m1.Cancel(cancelID); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts1, cancelID, StateCancelled)

	stopCtx, cancel := testContext(t)
	if err := m1.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	ts1.Close()

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewHandler(m2, HandlerConfig{}))
	defer func() {
		ts2.Close()
		stopCtx, cancel := testContext(t)
		defer cancel()
		m2.Stop(stopCtx)
	}()

	if st := getStatus(t, ts2, doneID); st.State != StateDone || st.BestCost == nil {
		t.Fatalf("done job restored as %s (best %v)", st.State, st.BestCost)
	}
	if st := getStatus(t, ts2, cancelID); st.State != StateCancelled {
		t.Fatalf("cancelled job restored as %s", st.State)
	}

	// The idempotency key of the done job survives the restart.
	id, code := submit(t, ts2, smallSpec(), "done-key")
	if code != http.StatusOK || id != doneID {
		t.Fatalf("idempotency after restart: code %d id %s, want 200 %s", code, id, doneID)
	}
}

// TestResumeProgressCountsJournaledReplicas pins that a job's progress is
// its journal length: a drained job reports exactly the replicas its
// journal holds, and the resumed job's state records never count down.
func TestResumeProgressCountsJournaledReplicas(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewHandler(m1, HandlerConfig{}))
	id, _ := submit(t, ts1, midJobSpec(), "")
	waitProgress(t, ts1, id, 2)
	stopCtx, cancel := testContext(t)
	if err := m1.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	ts1.Close()

	drained := getStatusDirect(t, m1, id)
	if drained.State != StateQueued {
		t.Fatalf("drained job in state %s, want queued", drained.State)
	}
	j, err := m1.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := (&checkpoint.Config{Dir: m1.jobDir(id), Resume: true}).Journal("job", j.Spec.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	journaled := journal.Len()
	journal.Close()
	if drained.DoneRuns != journaled {
		t.Fatalf("drained status reports %d replica(s) done, journal holds %d", drained.DoneRuns, journaled)
	}

	_, ts2 := testServer(t, Config{Dir: dir})
	records := streamRecords(t, ts2, id)
	waitState(t, ts2, id, StateDone)
	var dones []int
	for _, rec := range <-records {
		if rec.Type == "state" {
			dones = append(dones, rec.Done)
		}
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] < dones[i-1] {
			t.Fatalf("resumed progress ran backwards: done = %v", dones)
		}
	}
	if len(dones) == 0 || dones[len(dones)-1] != drained.TotalRuns {
		t.Fatalf("resumed progress ended at %v, want %d", dones, drained.TotalRuns)
	}
}
