package service

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mcopt/internal/archive"
	"mcopt/internal/faultinject"
)

// Retirement moves terminal jobs out of the directory-per-job store and
// into the compacted run archive (internal/archive, DESIGN.md §15). The
// sequence per job is chosen so a crash at any point never loses or
// duplicates a job:
//
//  1. build the record and Append it — durable (fsync'd) when Append returns
//  2. rename the job directory to <id>.retiring and drop the job from the
//     in-memory tables, both under the manager lock, so no API reader sees
//     a listed job whose directory is gone
//  3. remove the renamed directory
//
// A crash before 1 leaves the directory; the next sweep retries (Append
// dedups by job ID). A crash between 1 and 2 leaves a directory whose ID
// the archive already holds; the restart scan finishes the delete. A crash
// during 3, or a failed removal, leaves a .retiring directory, which is by
// construction always safe to delete; the next start deletes it.
// scripts/archive_test.sh kills the daemon inside this window (the
// "service.retire" fault site) and asserts the invariant.

// retiringSuffix marks a job directory whose record is durably archived and
// whose deletion is in progress.
const retiringSuffix = ".retiring"

// faultRetire fires between the durable append and the directory rename —
// the widest crash window in the retirement sequence.
const faultRetire = "service.retire"

// retireLoop periodically sweeps terminal jobs into the archive and applies
// the retention policy. It exits when the manager drains.
func (m *Manager) retireLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.RetireInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.runCtx.Done():
			return
		case <-ticker.C:
			m.retireSweep(time.Now())
			m.archiveGC(time.Now())
		}
	}
}

// retireSweep archives every job that has been terminal for at least
// RetireAge. Errors are logged and the job stays; the next sweep retries.
func (m *Manager) retireSweep(now time.Time) {
	m.mu.Lock()
	var eligible []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state.Terminal() && now.Sub(j.terminalAt) >= m.cfg.RetireAge {
			eligible = append(eligible, j)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, j := range eligible {
		if err := m.retireJob(j); err != nil {
			m.cfg.Logf("service: retire %s: %v", j.ID, err)
		}
	}
}

// retireJob archives one terminal job and removes its directory. Idempotent
// across crashes: the archive deduplicates by job ID, and the delete only
// starts once the record is durable.
func (m *Manager) retireJob(j *Job) error {
	rec, err := m.buildRecord(j)
	if err != nil {
		return err
	}
	if err := m.arch.Append(rec); err != nil {
		return err
	}
	if err := faultinject.Point(faultRetire); err != nil {
		return err
	}
	dir := m.jobDir(j.ID)
	tmp := dir + retiringSuffix
	m.mu.Lock()
	if err := os.Rename(dir, tmp); err != nil && !os.IsNotExist(err) {
		m.mu.Unlock()
		return err
	}
	delete(m.jobs, j.ID)
	if j.Key != "" && m.byKey[j.Key] == j.ID {
		delete(m.byKey, j.Key)
	}
	m.mu.Unlock()
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	m.obs.retired.Inc()
	m.cfg.Logf("service: job %s: retired to archive", j.ID)
	return nil
}

// archiveGC applies the retention bounds after a sweep.
func (m *Manager) archiveGC(now time.Time) {
	if m.cfg.ArchiveMaxAge <= 0 && m.cfg.ArchiveMaxBytes <= 0 {
		return
	}
	res, err := m.arch.GC(m.cfg.ArchiveMaxAge, m.cfg.ArchiveMaxBytes, now)
	if err != nil {
		m.cfg.Logf("service: archive gc: %v", err)
		return
	}
	m.obs.archiveGCRuns.Inc()
	if res.Segments > 0 {
		m.obs.archiveGCBytes.Add(res.Bytes)
		m.cfg.Logf("service: archive gc: reclaimed %d segment(s), %d record(s), %d bytes",
			res.Segments, res.Records, res.Bytes)
	}
}

// buildRecord compacts a terminal job into its archive record: the
// queryable headline fields plus, for done jobs, the verbatim result
// envelope and the resolved temperature schedule (what tuner.WarmStart
// mines for priors).
func (m *Manager) buildRecord(j *Job) (*archive.Record, error) {
	j.mu.Lock()
	state := j.state
	errMsg := j.errMsg
	runMillis := j.runMillis
	j.mu.Unlock()
	if !state.Terminal() {
		return nil, fmt.Errorf("job %s is %s, not terminal", j.ID, state)
	}
	spec := j.Spec
	p := spec.Problem
	size := p.Cells
	if size == 0 {
		size = p.N
	}
	rec := &archive.Record{
		ID:          j.ID,
		Fingerprint: fmt.Sprintf("%016x", spec.Fingerprint()),
		Kind:        p.Kind,
		Size:        size,
		G:           spec.G,
		Ys:          spec.Ys,
		Budget:      spec.Budget,
		Runs:        spec.Runs,
		Seed:        spec.Seed,
		ProblemSeed: p.Seed,
		State:       string(state),
		Seq:         j.Seq,
		RetiredAt:   time.Now().Unix(),
		RunMillis:   runMillis,
		Error:       errMsg,
	}
	if state != StateDone {
		return rec, nil
	}
	data, err := readResult(m.jobDir(j.ID))
	if err != nil {
		return nil, fmt.Errorf("read result: %w", err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	rec.Envelope = json.RawMessage(data)
	rec.BestCost = res.BestCost
	rec.Reduction = res.TotalReduction
	rec.FinalCosts = make([]float64, len(res.Runs))
	for i, rr := range res.Runs {
		rec.FinalCosts[i] = rr.BestCost
	}
	if len(rec.Ys) == 0 {
		// The spec left the schedule implicit; re-derive what the replicas
		// actually ran (a pure function of the spec) so warm starts can
		// compare schedules across jobs. Schedule-free classes stay empty.
		if inst, err := compile(&spec); err == nil {
			if _, ys, err := newG(inst, &spec); err == nil {
				rec.Ys = ys
			}
		}
	}
	return rec, nil
}

// Archive exposes the run archive; nil when Config.ArchiveDir is unset.
// The HTTP query endpoint and tests read through it.
func (m *Manager) Archive() *archive.Archive { return m.arch }
