package lease

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// recorder captures commit-hook invocations.
type recorder struct {
	mu    sync.Mutex
	calls map[int]int
}

func newRecorder() *recorder { return &recorder{calls: map[int]int{}} }

func (r *recorder) commit(slot int, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls[slot]++
	return nil
}

func (r *recorder) count(slot int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[slot]
}

func newTestTable(n, chunk int, clock *fakeClock, rec *recorder) *Table {
	return New(n, Options{
		TTL:    time.Second,
		Chunk:  chunk,
		Commit: rec.commit,
		Now:    clock.Now,
	})
}

func TestAcquireCommitLifecycle(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(4, 2, clock, rec)

	g1, ok := tbl.Acquire("r1")
	if !ok || g1.Start != 0 || g1.End != 2 || g1.Stolen {
		t.Fatalf("first grant = %+v, ok=%v; want fresh [0,2)", g1, ok)
	}
	g2, ok := tbl.Acquire("r2")
	if !ok || g2.Start != 2 || g2.End != 4 {
		t.Fatalf("second grant = %+v, ok=%v; want [2,4)", g2, ok)
	}
	if g2.Epoch <= g1.Epoch {
		t.Fatalf("epochs not monotone: %d then %d", g1.Epoch, g2.Epoch)
	}
	for s := g1.Start; s < g1.End; s++ {
		if err := tbl.Commit(g1.ID, g1.Epoch, s, []byte("x")); err != nil {
			t.Fatalf("commit slot %d: %v", s, err)
		}
	}
	for s := g2.Start; s < g2.End; s++ {
		if err := tbl.Commit(g2.ID, g2.Epoch, s, []byte("x")); err != nil {
			t.Fatalf("commit slot %d: %v", s, err)
		}
	}
	select {
	case <-tbl.Done():
	default:
		t.Fatal("table not done after all commits")
	}
	if rem := tbl.Remaining(); rem != 0 {
		t.Fatalf("remaining = %d, want 0", rem)
	}
}

func TestRenewAfterExpireRejectedWithEpochError(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(2, 2, clock, rec)
	g, _ := tbl.Acquire("r1")

	// Renewal inside the TTL extends the deadline.
	clock.Advance(500 * time.Millisecond)
	dl, err := tbl.Renew(g.ID, g.Epoch)
	if err != nil {
		t.Fatalf("renew inside TTL: %v", err)
	}
	if want := clock.Now().Add(time.Second); !dl.Equal(want) {
		t.Fatalf("deadline = %v, want %v", dl, want)
	}

	// Past the deadline the lease is gone; the renewal must identify the
	// epoch it presented and the epoch the lease died at.
	clock.Advance(2 * time.Second)
	_, err = tbl.Renew(g.ID, g.Epoch)
	var ee *EpochError
	if !errors.As(err, &ee) {
		t.Fatalf("renew after expire = %v, want *EpochError", err)
	}
	if ee.Reason != "expired" || ee.Presented != g.Epoch || ee.Current != g.Epoch {
		t.Fatalf("epoch error = %+v, want expired with both epochs %d", ee, g.Epoch)
	}
}

func TestCommitAfterReLeaseRejected(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(2, 2, clock, rec)
	g1, _ := tbl.Acquire("r1")

	clock.Advance(2 * time.Second) // g1 expires
	expired := tbl.ExpireDead()
	if len(expired) != 1 || expired[0].ID != g1.ID || len(expired[0].Freed) != 2 {
		t.Fatalf("expired = %+v, want g1 with 2 freed slots", expired)
	}
	g2, ok := tbl.Acquire("r2")
	if !ok || g2.Start != 0 || g2.End != 2 {
		t.Fatalf("re-lease grant = %+v, ok=%v; want [0,2)", g2, ok)
	}
	if g2.Epoch <= g1.Epoch {
		t.Fatalf("re-lease epoch %d not above %d", g2.Epoch, g1.Epoch)
	}

	// The dead runner comes back and tries to commit: rejected with the
	// epoch it died at, and the hook must not have run.
	err := tbl.Commit(g1.ID, g1.Epoch, 0, []byte("stale"))
	var ee *EpochError
	if !errors.As(err, &ee) || ee.Reason != "expired" {
		t.Fatalf("commit after re-lease = %v, want expired *EpochError", err)
	}
	if rec.count(0) != 0 {
		t.Fatal("stale commit reached the commit hook")
	}

	// The new holder commits normally.
	if err := tbl.Commit(g2.ID, g2.Epoch, 0, []byte("fresh")); err != nil {
		t.Fatalf("new holder commit: %v", err)
	}
	// Once the slot is durable, even the dead lease's retry is acknowledged
	// (the payload is byte-identical by construction, and the first commit
	// already holds).
	if err := tbl.Commit(g1.ID, g1.Epoch, 0, []byte("stale")); err != nil {
		t.Fatalf("stale retry of a committed slot = %v, want idempotent nil", err)
	}
	if rec.count(0) != 1 {
		t.Fatalf("commit hook ran %d times for slot 0, want 1", rec.count(0))
	}
}

func TestDoubleCommitIdempotent(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(3, 3, clock, rec)
	g, _ := tbl.Acquire("r1")
	for i := 0; i < 3; i++ { // the whole range, three times over
		for s := g.Start; s < g.End; s++ {
			if err := tbl.Commit(g.ID, g.Epoch, s, []byte("p")); err != nil {
				t.Fatalf("commit round %d slot %d: %v", i, s, err)
			}
		}
	}
	for s := 0; s < 3; s++ {
		if rec.count(s) != 1 {
			t.Fatalf("slot %d hit the commit hook %d times, want exactly 1", s, rec.count(s))
		}
	}
}

func TestStaleEpochRejected(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(2, 2, clock, rec)
	g, _ := tbl.Acquire("r1")
	_, err := tbl.Renew(g.ID, g.Epoch+7)
	var ee *EpochError
	if !errors.As(err, &ee) || ee.Reason != "stale-epoch" || ee.Current != g.Epoch {
		t.Fatalf("renew with wrong epoch = %v, want stale-epoch naming %d", err, g.Epoch)
	}
	if err := tbl.Commit(g.ID, g.Epoch+7, 0, nil); !errors.As(err, &ee) {
		t.Fatalf("commit with wrong epoch = %v, want *EpochError", err)
	}
	if _, err := tbl.Renew("l-999", 1); !errors.As(err, &ee) || ee.Reason != "unknown" {
		t.Fatalf("renew of unknown lease = %v, want unknown *EpochError", err)
	}
}

func TestWorkStealingSplitsStraggler(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(8, 8, clock, rec)

	// r1 grabs the whole grid and commits only the first slot.
	g1, _ := tbl.Acquire("r1")
	if g1.Start != 0 || g1.End != 8 {
		t.Fatalf("g1 = %+v, want [0,8)", g1)
	}
	if err := tbl.Commit(g1.ID, g1.Epoch, 0, []byte("p")); err != nil {
		t.Fatal(err)
	}

	// r2 arrives with nothing free: it must steal the back half of r1's
	// uncommitted slots (1..7 → thief gets [4,8)).
	g2, ok := tbl.Acquire("r2")
	if !ok || !g2.Stolen {
		t.Fatalf("g2 = %+v, ok=%v; want a stolen grant", g2, ok)
	}
	if g2.Start != 4 || g2.End != 8 {
		t.Fatalf("stolen window = [%d,%d), want [4,8)", g2.Start, g2.End)
	}

	// The straggler can still commit its remaining front window...
	for s := 1; s < 4; s++ {
		if err := tbl.Commit(g1.ID, g1.Epoch, s, []byte("p")); err != nil {
			t.Fatalf("straggler commit slot %d: %v", s, err)
		}
	}
	// ...but a stolen slot is refused with NotHeldError so it skips ahead.
	var nh *NotHeldError
	if err := tbl.Commit(g1.ID, g1.Epoch, 5, []byte("p")); !errors.As(err, &nh) || nh.Slot != 5 {
		t.Fatalf("straggler commit of stolen slot = %v, want *NotHeldError slot 5", err)
	}
	// The thief finishes the back half.
	for s := g2.Start; s < g2.End; s++ {
		if err := tbl.Commit(g2.ID, g2.Epoch, s, []byte("p")); err != nil {
			t.Fatalf("thief commit slot %d: %v", s, err)
		}
	}
	select {
	case <-tbl.Done():
	default:
		t.Fatal("table not done")
	}
}

func TestStealRequiresTwoUncommitted(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(2, 2, clock, rec)
	g1, _ := tbl.Acquire("r1")
	if err := tbl.Commit(g1.ID, g1.Epoch, 0, []byte("p")); err != nil {
		t.Fatal(err)
	}
	// One uncommitted slot left on the only lease: nothing to steal.
	if g2, ok := tbl.Acquire("r2"); ok {
		t.Fatalf("acquire on a 1-slot straggler granted %+v, want no work", g2)
	}
}

func TestMarkCommittedAndDoneGrants(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(4, 4, clock, rec)
	tbl.MarkCommitted(1)
	tbl.MarkCommitted(1) // idempotent
	g, ok := tbl.Acquire("r1")
	if !ok {
		t.Fatal("no grant")
	}
	// Slot 1 sits inside the granted window but is already done.
	if g.Start != 0 || g.End != 4 || len(g.Done) != 1 || g.Done[0] != 1 {
		t.Fatalf("grant = %+v, want [0,4) with Done=[1]", g)
	}
	for _, s := range []int{0, 2, 3} {
		if err := tbl.Commit(g.ID, g.Epoch, s, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-tbl.Done():
	default:
		t.Fatal("table not done")
	}
	if rec.count(1) != 0 {
		t.Fatal("restored slot reached the commit hook")
	}
}

func TestCommitLocalRevokesHolder(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(2, 2, clock, rec)
	g, _ := tbl.Acquire("r1")
	if err := tbl.CommitLocal(0, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CommitLocal(0, []byte("p")); err != nil { // idempotent
		t.Fatal(err)
	}
	if rec.count(0) != 1 {
		t.Fatalf("slot 0 hook count = %d, want 1", rec.count(0))
	}
	// The nominal holder's own commit of that slot is acknowledged (it is
	// durable), and its other slot still commits normally.
	if err := tbl.Commit(g.ID, g.Epoch, 0, []byte("p")); err != nil {
		t.Fatalf("holder commit of locally committed slot = %v", err)
	}
	if err := tbl.Commit(g.ID, g.Epoch, 1, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if tbl.Remaining() != 0 {
		t.Fatal("slots left uncommitted")
	}
}

func TestCommitHookErrorLeavesSlotUncommitted(t *testing.T) {
	clock := newFakeClock()
	fail := true
	tbl := New(1, Options{
		TTL: time.Second, Chunk: 1, Now: clock.Now,
		Commit: func(slot int, payload []byte) error {
			if fail {
				return errors.New("disk full")
			}
			return nil
		},
	})
	g, _ := tbl.Acquire("r1")
	if err := tbl.Commit(g.ID, g.Epoch, 0, []byte("p")); err == nil {
		t.Fatal("commit with failing hook succeeded")
	}
	if tbl.Committed(0) {
		t.Fatal("slot marked committed despite hook failure")
	}
	fail = false
	if err := tbl.Commit(g.ID, g.Epoch, 0, []byte("p")); err != nil {
		t.Fatalf("retry after hook recovery: %v", err)
	}
}

func TestSnapshotCounts(t *testing.T) {
	clock, rec := newFakeClock(), newRecorder()
	tbl := newTestTable(6, 2, clock, rec)
	tbl.MarkCommitted(5)
	g, _ := tbl.Acquire("r1")
	if err := tbl.Commit(g.ID, g.Epoch, g.Start, []byte("p")); err != nil {
		t.Fatal(err)
	}
	st := tbl.Snapshot()
	want := Stats{Slots: 6, Committed: 2, Leased: 1, Free: 3, Live: 1}
	if st != want {
		t.Fatalf("snapshot = %+v, want %+v", st, want)
	}
}

// TestConcurrentRunners hammers one table from many goroutines acting as
// runners, with expiry racing commits, and checks every slot commits
// exactly once — the invariant the race detector gate leans on.
func TestConcurrentRunners(t *testing.T) {
	const n = 64
	rec := newRecorder()
	tbl := New(n, Options{TTL: 5 * time.Millisecond, Chunk: 3, Commit: rec.commit})

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			name := fmt.Sprintf("r%d", r)
			for {
				select {
				case <-tbl.Done():
					return
				default:
				}
				g, ok := tbl.Acquire(name)
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				done := map[int]bool{}
				for _, s := range g.Done {
					done[s] = true
				}
				for s := g.Start; s < g.End; s++ {
					if done[s] {
						continue
					}
					if r%3 == 0 {
						time.Sleep(2 * time.Millisecond) // straggle: invite steals + expiry
					}
					err := tbl.Commit(g.ID, g.Epoch, s, []byte("p"))
					var ee *EpochError
					if errors.As(err, &ee) {
						break // lease lost; abandon the window
					}
					var nh *NotHeldError
					if errors.As(err, &nh) {
						continue // stolen; skip
					}
					if err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				}
				tbl.ExpireDead()
			}
		}(r)
	}
	wg.Wait()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.calls) != n {
		t.Fatalf("committed %d distinct slots, want %d", len(rec.calls), n)
	}
	for s, c := range rec.calls {
		if c != 1 {
			t.Fatalf("slot %d committed %d times", s, c)
		}
	}
}

func TestOnExpireSeesLazyAndSweptExpiry(t *testing.T) {
	clk := newFakeClock()
	var seen []string
	tab := New(4, Options{
		TTL: time.Second, Chunk: 1, Commit: func(int, []byte) error { return nil },
		OnExpire: func(ex Expired) { seen = append(seen, ex.ID) },
		Now:      clk.Now,
	})
	g1, _ := tab.Acquire("r1")
	clk.Advance(2 * time.Second)
	// Lazy path: the next Acquire trips the expiry before granting.
	g2, ok := tab.Acquire("r2")
	if !ok || g2.Start != g1.Start {
		t.Fatalf("expected re-lease of %d, got %+v ok=%v", g1.Start, g2, ok)
	}
	if len(seen) != 1 || seen[0] != g1.ID {
		t.Fatalf("OnExpire saw %v, want [%s] from the lazy path", seen, g1.ID)
	}
	// Swept path: nobody touches the table, ExpireDead finds it.
	clk.Advance(2 * time.Second)
	tab.ExpireDead()
	if len(seen) != 2 || seen[1] != g2.ID {
		t.Fatalf("OnExpire saw %v, want %s appended by the sweep", seen, g2.ID)
	}
}
