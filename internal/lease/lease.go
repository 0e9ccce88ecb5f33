// Package lease is the coordination core of distributed mcoptd: a table of
// time-limited, epoch-stamped leases over the replica index range of one
// job's grid. Replicas are pure functions of (spec, index) — the property
// every run surface in this repo already guarantees — so the only thing a
// fault-tolerant distributor has to get right is bookkeeping: never lose a
// slot, never let two conflicting owners both think they hold it, and make
// re-computation of a slot harmless. The table provides exactly that:
//
//   - Acquire grants a contiguous window of free slots to a runner, stamped
//     with a monotonically increasing epoch and a renewal deadline. When no
//     free slots remain it work-steals: the live lease with the most
//     uncommitted slots is split and its back half re-granted at a fresh
//     epoch, so an idle runner shortens a straggler instead of waiting on it.
//   - Renew extends a lease's deadline — the heartbeat. A renewal presented
//     after expiry, or with a stale epoch, fails with an *EpochError that
//     names both epochs, so the runner knows its lease is gone rather than
//     retrying forever.
//   - Commit records a slot's result through the table's commit hook —
//     in mcoptd, an append to the job's §9 checkpoint journal, which makes
//     the journal the lease-commit log. Committing an already-committed slot
//     is idempotent (retried requests, re-leased ranges recomputing the same
//     pure function), committing through a dead or superseded lease is an
//     *EpochError, and committing a slot stolen from the lease is a
//     *NotHeldError so the straggler skips ahead instead of duplicating the
//     thief's work.
//   - ExpireDead sweeps leases whose deadline has passed, returning their
//     uncommitted slots to the free pool — the next Acquire re-leases them
//     at a higher epoch. A resumed range recomputes byte-identical payloads,
//     and the journal's per-slot idempotency absorbs any race with a
//     not-quite-dead runner, so no interleaving of crashes, partitions, and
//     stragglers can corrupt or duplicate a result.
//
// The table never touches the network; internal/service wires it to HTTP
// endpoints and internal/runnerclient speaks to those. All methods are safe
// for concurrent use. See DESIGN.md §14.
package lease

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// EpochError reports an operation presented against a lease generation that
// is no longer current: the lease expired (and its range may have been
// re-granted at a later epoch), the presented epoch is stale, or the lease
// was never granted. The two epochs make the failure diagnosable from the
// runner side without another round trip.
type EpochError struct {
	// Lease is the lease ID the operation named.
	Lease string
	// Presented is the epoch the caller sent.
	Presented uint64
	// Current is the epoch the lease last held (0 when the table has no
	// record of the lease at all).
	Current uint64
	// Reason is "expired", "stale-epoch", or "unknown".
	Reason string
}

func (e *EpochError) Error() string {
	return fmt.Sprintf("lease %s %s: presented epoch %d, lease epoch %d",
		e.Lease, e.Reason, e.Presented, e.Current)
}

// NotHeldError reports a commit for a slot the lease no longer holds —
// the slot was stolen by another runner while this one was computing it.
// The right response is to skip the slot and continue with the rest of the
// window; the thief owns it now, and recomputing it yields identical bytes
// anyway.
type NotHeldError struct {
	Lease string
	Slot  int
}

func (e *NotHeldError) Error() string {
	return fmt.Sprintf("lease %s does not hold slot %d (stolen)", e.Lease, e.Slot)
}

// CommitFunc is the table's durable commit log hook: it receives each
// freshly committed slot exactly once, before the commit is acknowledged.
// In mcoptd it appends the payload to the job's checkpoint journal and
// fills the result slot. An error aborts the commit: the slot stays
// uncommitted and the caller sees the error.
type CommitFunc func(slot int, payload []byte) error

// Options shapes a Table.
type Options struct {
	// TTL is the lease lifetime between renewals (default 10s).
	TTL time.Duration
	// Chunk bounds the slots per fresh grant (default 8).
	Chunk int
	// Commit is the durable commit hook; required.
	Commit CommitFunc
	// OnExpire, when non-nil, observes every lease retired for a missed
	// deadline — whether found by an ExpireDead sweep or lazily by
	// Acquire/Renew/Commit. It runs under the table lock and must not call
	// back into the table; metrics and logging are its intended use.
	OnExpire func(Expired)
	// Now is the clock (default time.Now); tests inject a fake one.
	Now func() time.Time
}

// Grant is an acquired lease: a contiguous slot window [Start, End) the
// runner should compute in ascending order, skipping Done.
type Grant struct {
	// ID names the lease; Epoch stamps its generation. Both must accompany
	// every renew and commit.
	ID    string
	Epoch uint64
	// Start/End bound the granted window, End exclusive.
	Start, End int
	// Done lists slots inside the window that are already committed (a
	// stolen window can contain some); the runner skips them.
	Done []int
	// Deadline is when the lease expires without renewal.
	Deadline time.Time
	// Stolen marks a grant carved out of a straggler's lease.
	Stolen bool
}

// leaseState is one live lease.
type leaseState struct {
	id       string
	runner   string
	epoch    uint64
	start    int // current window [start, end); stealing shrinks end
	end      int
	deadline time.Time
}

// tomb remembers an ended lease so late renews and commits get the correct
// epoch error instead of "unknown".
type tomb struct {
	epoch  uint64
	reason string // "expired" or "done"
}

// Table tracks one grid's slots through free → leased → committed. The
// zero value is unusable; construct with New.
type Table struct {
	mu        sync.Mutex
	n         int
	opts      Options
	committed []bool
	holder    []*leaseState // per-slot owning lease, nil when free or committed
	leases    map[string]*leaseState
	tombs     map[string]tomb
	epoch     uint64
	nextID    int64
	remaining int // uncommitted slots
	done      chan struct{}
}

// New builds a table over n slots. Slots already completed by an earlier
// run are marked via MarkCommitted before the first Acquire.
func New(n int, opts Options) *Table {
	if opts.TTL <= 0 {
		opts.TTL = 10 * time.Second
	}
	if opts.Chunk <= 0 {
		opts.Chunk = 8
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	t := &Table{
		n:         n,
		opts:      opts,
		committed: make([]bool, n),
		holder:    make([]*leaseState, n),
		leases:    map[string]*leaseState{},
		tombs:     map[string]tomb{},
		remaining: n,
		done:      make(chan struct{}),
	}
	if n == 0 {
		close(t.done)
	}
	return t
}

// MarkCommitted records slot as already complete (restored from the
// journal) without invoking the commit hook. It is not an error to mark a
// slot twice.
func (t *Table) MarkCommitted(slot int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot < 0 || slot >= t.n || t.committed[slot] {
		return
	}
	t.committed[slot] = true
	t.holder[slot] = nil
	t.decRemainingLocked()
}

func (t *Table) decRemainingLocked() {
	t.remaining--
	if t.remaining == 0 {
		close(t.done)
	}
}

// Done returns a channel closed once every slot is committed.
func (t *Table) Done() <-chan struct{} { return t.done }

// Remaining counts uncommitted slots.
func (t *Table) Remaining() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.remaining
}

// Committed reports whether slot is committed.
func (t *Table) Committed(slot int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slot >= 0 && slot < t.n && t.committed[slot]
}

// Acquire grants runner a lease. It prefers a contiguous window of up to
// Chunk free slots; with none free it steals the back half of the live
// lease holding the most uncommitted slots (needs at least 2, so a lease
// is never stolen down to nothing). ok is false when there is nothing to
// grant — every slot is committed or held by a lease too small to split.
func (t *Table) Acquire(runner string) (g Grant, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.opts.Now())

	start, end := t.freeRunLocked()
	stolen := false
	if start == end {
		var victim *leaseState
		victimUncommitted := 1 // require ≥ 2 to split
		for _, ls := range t.leases {
			if u := t.uncommittedInLocked(ls); u > victimUncommitted {
				victim, victimUncommitted = ls, u
			}
		}
		if victim == nil {
			return Grant{}, false
		}
		// Split at the midpoint of the victim's uncommitted slots: the
		// victim keeps the front (it is likely already computing there),
		// the thief takes the back.
		uncommitted := t.uncommittedSlotsLocked(victim)
		mid := uncommitted[len(uncommitted)/2]
		start, end = mid, victim.end
		victim.end = mid
		stolen = true
	}

	now := t.opts.Now()
	t.nextID++
	t.epoch++
	ls := &leaseState{
		id:       fmt.Sprintf("l-%d", t.nextID),
		runner:   runner,
		epoch:    t.epoch,
		start:    start,
		end:      end,
		deadline: now.Add(t.opts.TTL),
	}
	t.leases[ls.id] = ls
	var done []int
	for s := start; s < end; s++ {
		if t.committed[s] {
			done = append(done, s)
		} else {
			t.holder[s] = ls
		}
	}
	return Grant{
		ID:       ls.id,
		Epoch:    ls.epoch,
		Start:    start,
		End:      end,
		Done:     done,
		Deadline: ls.deadline,
		Stolen:   stolen,
	}, true
}

// freeRunLocked finds the first contiguous window holding up to Chunk free
// slots. Committed slots inside the window do not end it (a re-leased range
// can interleave committed and freed slots) — they ride along and are
// reported in the grant's Done list; leased slots do end it. Trailing
// committed slots are trimmed. Returns start == end when no slot is free.
func (t *Table) freeRunLocked() (start, end int) {
	for s := 0; s < t.n; s++ {
		if t.committed[s] || t.holder[s] != nil {
			continue
		}
		free, lastFree := 0, s
		for e := s; e < t.n && t.holder[e] == nil; e++ {
			if !t.committed[e] {
				if free == t.opts.Chunk {
					break
				}
				free++
				lastFree = e
			}
		}
		return s, lastFree + 1
	}
	return 0, 0
}

func (t *Table) uncommittedInLocked(ls *leaseState) int {
	u := 0
	for s := ls.start; s < ls.end; s++ {
		if t.holder[s] == ls && !t.committed[s] {
			u++
		}
	}
	return u
}

func (t *Table) uncommittedSlotsLocked(ls *leaseState) []int {
	var slots []int
	for s := ls.start; s < ls.end; s++ {
		if t.holder[s] == ls && !t.committed[s] {
			slots = append(slots, s)
		}
	}
	return slots
}

// Renew extends the lease's deadline by one TTL and returns the new
// deadline. A lease that expired, ended, or was never granted — or a stale
// epoch — fails with an *EpochError.
func (t *Table) Renew(id string, epoch uint64) (time.Time, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.opts.Now()
	t.expireLocked(now)
	ls, err := t.lookupLocked(id, epoch)
	if err != nil {
		return time.Time{}, err
	}
	ls.deadline = now.Add(t.opts.TTL)
	return ls.deadline, nil
}

// lookupLocked resolves a live lease by (id, epoch), translating misses
// into the precise epoch error.
func (t *Table) lookupLocked(id string, epoch uint64) (*leaseState, error) {
	if ls, ok := t.leases[id]; ok {
		if ls.epoch != epoch {
			return nil, &EpochError{Lease: id, Presented: epoch, Current: ls.epoch, Reason: "stale-epoch"}
		}
		return ls, nil
	}
	if tb, ok := t.tombs[id]; ok {
		return nil, &EpochError{Lease: id, Presented: epoch, Current: tb.epoch, Reason: tb.reason}
	}
	return nil, &EpochError{Lease: id, Presented: epoch, Reason: "unknown"}
}

// Commit records slot's payload through the commit hook. Idempotent for
// already-committed slots (the hook runs at most once per slot); an
// *EpochError for dead or superseded leases; a *NotHeldError for a live
// lease committing a slot that was stolen from it.
func (t *Table) Commit(id string, epoch uint64, slot int, payload []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.opts.Now())
	ls, err := t.lookupLocked(id, epoch)
	if err != nil {
		// A retried commit whose first attempt landed before the lease died
		// is already durable; acknowledge it rather than failing a request
		// that cannot hurt anything.
		if slot >= 0 && slot < t.n && t.committed[slot] {
			return nil
		}
		return err
	}
	if slot < 0 || slot >= t.n {
		return fmt.Errorf("lease %s: slot %d out of range [0,%d)", id, slot, t.n)
	}
	if t.committed[slot] {
		return nil
	}
	if t.holder[slot] != ls {
		return &NotHeldError{Lease: id, Slot: slot}
	}
	if err := t.opts.Commit(slot, payload); err != nil {
		return err
	}
	// The lease itself stays live until it expires even when this was its
	// last slot: a retired-on-completion lease would answer the runner's
	// in-flight renewals and duplicate commits with confusing epoch errors.
	t.committed[slot] = true
	t.holder[slot] = nil
	t.decRemainingLocked()
	return nil
}

// CommitLocal records slot's payload outside any lease — a slot the
// coordinator computed in-process while no runner was live. If a lease
// still nominally holds the slot it is revoked from that lease (a later
// commit from the presumed-dead runner gets a NotHeldError, or an
// idempotent nil if it retried after this). Idempotent.
func (t *Table) CommitLocal(slot int, payload []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot < 0 || slot >= t.n {
		return fmt.Errorf("lease: local commit slot %d out of range [0,%d)", slot, t.n)
	}
	if t.committed[slot] {
		return nil
	}
	if err := t.opts.Commit(slot, payload); err != nil {
		return err
	}
	t.committed[slot] = true
	t.holder[slot] = nil
	t.decRemainingLocked()
	return nil
}

// Expired describes one lease the sweep retired, for logs and metrics.
type Expired struct {
	ID     string
	Runner string
	Epoch  uint64
	// Freed lists the uncommitted slots returned to the pool.
	Freed []int
}

// ExpireDead retires every lease whose deadline has passed, returning the
// freed ranges. The freed slots become grantable immediately; the next
// Acquire re-leases them at a higher epoch.
func (t *Table) ExpireDead() []Expired {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expireLocked(t.opts.Now())
}

func (t *Table) expireLocked(now time.Time) []Expired {
	var out []Expired
	for _, ls := range t.leases {
		if now.Before(ls.deadline) {
			continue
		}
		ex := Expired{
			ID:     ls.id,
			Runner: ls.runner,
			Epoch:  ls.epoch,
			Freed:  t.uncommittedSlotsLocked(ls),
		}
		out = append(out, ex)
		t.retireLocked(ls, "expired")
		if t.opts.OnExpire != nil {
			t.opts.OnExpire(ex)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// retireLocked removes a lease, freeing its uncommitted slots, and leaves a
// tombstone so late requests get the correct epoch error.
func (t *Table) retireLocked(ls *leaseState, reason string) {
	for s := ls.start; s < ls.end; s++ {
		if t.holder[s] == ls {
			t.holder[s] = nil
		}
	}
	delete(t.leases, ls.id)
	t.tombs[ls.id] = tomb{epoch: ls.epoch, reason: reason}
}

// Stats is a point-in-time gauge snapshot.
type Stats struct {
	Slots, Committed, Leased, Free int
	Live                           int // live leases
}

// Snapshot reports the table's current occupancy.
func (t *Table) Snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Stats{Slots: t.n, Live: len(t.leases)}
	for s := 0; s < t.n; s++ {
		switch {
		case t.committed[s]:
			st.Committed++
		case t.holder[s] != nil:
			st.Leased++
		default:
			st.Free++
		}
	}
	return st
}
