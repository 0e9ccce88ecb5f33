package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"mcopt/internal/lease"
)

// The coordinator is mcoptd's side of distributed execution: it tracks the
// runner fleet (registration with a build-fingerprint handshake, liveness
// by heartbeat recency), serves lease grants over running jobs' replica
// grids, and routes renewals and commits to the right job's lease table.
// Every running job has a lease table and is attached here (runJob), so a
// live runner can lease from any of them; while no runner is live the
// manager computes the uncommitted slots in-process instead. A fleet that
// registers mid-job takes over the slots not yet started, and one that dies
// mid-job hands them back — the service degrades to a single node, it
// never strands a job.

// runnerInfo is one registered fleet member.
type runnerInfo struct {
	id       string
	name     string
	lastSeen time.Time
}

// distJob is one running job exposed to the fleet: its lease table plus the
// normalized spec runners need to compute grants.
type distJob struct {
	job   *Job
	table *lease.Table
	spec  json.RawMessage
}

// coordinator owns the runner pool and the routing from wire lease IDs
// ("<jobID>.<tableID>") to jobs. It holds no slot state of its own — the
// lease tables are the source of truth.
type coordinator struct {
	m *Manager

	mu      sync.Mutex
	runners map[string]*runnerInfo
	jobs    map[string]*distJob // job ID → attached job
	order   []string            // attach order, oldest first
	// leaseRunner maps wire lease IDs to their runner, so renewals and
	// commits — which carry only the lease ID — still count as heartbeats
	// for runner liveness. Entries die with their job's detach.
	leaseRunner map[string]string
	nextID      int64
}

func newCoordinator(m *Manager) *coordinator {
	return &coordinator{
		m:           m,
		runners:     map[string]*runnerInfo{},
		jobs:        map[string]*distJob{},
		leaseRunner: map[string]string{},
	}
}

// register admits a runner after the fingerprint handshake. A mismatch is
// rejected: a fleet mixing build fingerprints could commit replicas computed
// by different code revisions, silently breaking the byte-identity contract,
// so the coordinator refuses with a 409 rather than trusting the runner.
func (c *coordinator) register(name, fingerprint string) (id string, err error) {
	if want := c.m.cfg.Fingerprint; fingerprint != want {
		c.m.obs.runnerRejected.With(rejectVersion).Inc()
		return "", fmt.Errorf("build fingerprint mismatch: runner has %q, coordinator has %q — deploy matching binaries", fingerprint, want)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id = fmt.Sprintf("r-%d", c.nextID)
	c.runners[id] = &runnerInfo{id: id, name: name, lastSeen: time.Now()}
	c.m.obs.runnerRegs.Inc()
	c.m.cfg.Logf("service: runner %s (%q) registered", id, name)
	return id, nil
}

// touch bumps a runner's liveness clock; every authenticated fleet request
// counts as a heartbeat. Reports false for unknown runner IDs.
func (c *coordinator) touch(runnerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ri, ok := c.runners[runnerID]
	if !ok {
		return false
	}
	ri.lastSeen = time.Now()
	return true
}

// touchLease bumps the liveness of the runner holding a lease; renewals and
// commits are heartbeats too, so a runner grinding one long window without
// re-acquiring never looks dead.
func (c *coordinator) touchLease(wireID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rid, ok := c.leaseRunner[wireID]; ok {
		if ri, ok := c.runners[rid]; ok {
			ri.lastSeen = time.Now()
		}
	}
}

// live counts runners seen within the runner TTL, sweeping out the dead.
func (c *coordinator) live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

func (c *coordinator) liveLocked() int {
	cutoff := time.Now().Add(-c.m.cfg.RunnerTTL)
	n := 0
	for id, ri := range c.runners {
		if ri.lastSeen.Before(cutoff) {
			c.m.cfg.Logf("service: runner %s (%q) presumed dead (last seen %s ago)",
				id, ri.name, time.Since(ri.lastSeen).Round(time.Millisecond))
			delete(c.runners, id)
			continue
		}
		n++
	}
	return n
}

// attach exposes a running job to the fleet; detach withdraws it. The spec
// is marshaled once here — every grant for the job carries the same bytes.
func (c *coordinator) attach(j *Job, table *lease.Table) error {
	spec, err := json.Marshal(&j.Spec)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs[j.ID] = &distJob{job: j, table: table, spec: spec}
	c.order = append(c.order, j.ID)
	return nil
}

func (c *coordinator) detach(jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.jobs, jobID)
	for i, id := range c.order {
		if id == jobID {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	prefix := jobID + "."
	for wireID := range c.leaseRunner {
		if strings.HasPrefix(wireID, prefix) {
			delete(c.leaseRunner, wireID)
		}
	}
}

// acquire grants the requesting runner a lease from the oldest attached job
// with grantable slots. ok is false when no job has work to lease.
func (c *coordinator) acquire(runnerID string) (g lease.Grant, dj *distJob, ok bool) {
	c.mu.Lock()
	jobs := make([]*distJob, 0, len(c.order))
	for _, id := range c.order {
		jobs = append(jobs, c.jobs[id])
	}
	c.mu.Unlock()
	// Acquire outside the coordinator lock: the table has its own, and its
	// commit hook must never be reachable while we hold ours.
	for _, dj := range jobs {
		if g, ok := dj.table.Acquire(runnerID); ok {
			c.mu.Lock()
			c.leaseRunner[wireLeaseID(dj.job.ID, g.ID)] = runnerID
			c.mu.Unlock()
			mode := leaseModeFresh
			if g.Stolen {
				mode = leaseModeStolen
			}
			c.m.obs.leasesGranted.With(mode).Inc()
			c.traceLease(dj.job, "lease", map[string]string{
				"lease":  g.ID,
				"runner": runnerID,
				"window": fmt.Sprintf("[%d,%d)", g.Start, g.End),
				"stolen": fmt.Sprintf("%v", g.Stolen),
			})
			if g.Stolen {
				c.m.cfg.Logf("service: job %s: lease %s stole [%d,%d) for %s",
					dj.job.ID, g.ID, g.Start, g.End, runnerID)
			}
			return g, dj, true
		}
	}
	return lease.Grant{}, nil, false
}

// route resolves a wire lease ID "<jobID>.<tableID>" to its job and table
// lease ID. Unknown or finished jobs report ok == false — the runner sees a
// lease-lost error and abandons the window, which is exactly right: the
// job's table is gone because the job completed or died.
func (c *coordinator) route(wireID string) (dj *distJob, tableID string, ok bool) {
	jobID, tableID, found := strings.Cut(wireID, ".")
	if !found {
		return nil, "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dj, ok = c.jobs[jobID]
	return dj, tableID, ok
}

// wireLeaseID builds the fleet-visible lease ID. Table lease IDs are only
// unique per job, so the job ID prefixes them on the wire.
func wireLeaseID(jobID, tableID string) string { return jobID + "." + tableID }

// traceLease records an instantaneous coordination span on the job's
// timeline, if tracing is on.
func (c *coordinator) traceLease(j *Job, name string, attrs map[string]string) {
	if j.trace == nil {
		return
	}
	span := j.trace.Start(j.runSpan, name, attrs)
	j.trace.End(span)
}
