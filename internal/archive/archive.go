// Package archive is the service's million-job memory: a compacted,
// append-only store that terminal jobs retire into once nobody needs their
// directory anymore. At production scale a directory per finished job is
// millions of directories nobody can list, query, or learn from; the
// archive replaces them with a handful of segment files plus small
// per-segment indexes, queryable in one pass and cheap to garbage-collect.
//
// Layout under the archive directory:
//
//	active.seg      the segment being appended to (torn tails truncated at open)
//	seg-<n>.seg     sealed, immutable segments, n increasing with age
//	seg-<n>.idx     per-segment sparse index (JSON, written via atomicio)
//
// Each segment is a header followed by length-prefixed, CRC-framed,
// flate-compressed records (stdlib only — see segment.go for the exact
// framing). Appends write and fsync the active segment before returning, so
// a record handed to Append is durable when Append returns — the property
// the service's retirement loop builds its exactly-once guarantee on. When
// the active segment reaches the roll threshold it is sealed: its index is
// committed through internal/atomicio, then the file is renamed into the
// sealed sequence. Every crash window in that dance is repaired at Open
// (index without segment: dropped; segment without index: index rebuilt by
// scanning).
//
// The per-segment index carries the closed sets (kinds, g functions,
// states), the retirement-time range, budget bounds, best-cost quantiles,
// and the record IDs. Scan prunes whole segments against a Filter using
// only the indexes, then decodes just the surviving segments — a query for
// one problem kind in a 24-hour window touches a sliver of a large archive.
//
// Garbage collection is tombstone-free: retention works on whole sealed
// segments, oldest first, so reclaiming space is unlinking files — no
// rewrite, no per-record tombstones, no compaction debt. The active segment
// is never collected.
package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options shapes an Archive.
type Options struct {
	// Dir is the archive directory; created if absent. Required.
	Dir string
	// SegmentBytes is the active-segment roll threshold (default 4 MiB).
	// Records larger than the threshold still land in one segment each.
	SegmentBytes int64
	// ReadOnly opens the archive for Scan/Stats only: no header repair, no
	// torn-tail truncation, and Append refuses. Consumers like the tuner's
	// warm start use it to read a live daemon's archive without contending
	// for the active segment.
	ReadOnly bool
	// Logf, when non-nil, receives operational log lines (index rebuilds,
	// dropped orphan indexes).
	Logf func(format string, args ...any)
}

// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes is 0.
const DefaultSegmentBytes = 4 << 20

// Archive is the compacted run store. All methods are safe for concurrent
// use; Scan callbacks must not call back into the archive.
type Archive struct {
	opts Options

	mu     sync.Mutex
	sealed []*sealedSegment // ascending sequence number
	active *activeSegment   // nil in read-only mode when no active file exists
	ids    map[string]struct{}
	enc    frameEncoder // reused by every append
	closed bool
}

// sealedSegment is one immutable segment plus its loaded index.
type sealedSegment struct {
	seq  int64
	path string
	idx  *Index
}

// ErrClosed reports use after Close.
var ErrClosed = errors.New("archive: closed")

// ErrReadOnly reports an Append on a read-only archive.
var ErrReadOnly = errors.New("archive: opened read-only")

// Open opens (or creates) the archive in opts.Dir, repairing any crash
// windows left by an earlier process: orphan index files are removed,
// sealed segments missing their index get it rebuilt by scanning, and the
// active segment's torn tail (a crash mid-append) is truncated.
func Open(opts Options) (*Archive, error) {
	if opts.Dir == "" {
		return nil, errors.New("archive: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
	}
	a := &Archive{opts: opts, ids: map[string]struct{}{}}
	if err := a.scanDir(); err != nil {
		return nil, err
	}
	if !opts.ReadOnly {
		act, err := openActive(filepath.Join(opts.Dir, activeName), opts.Logf)
		if err != nil {
			return nil, err
		}
		a.active = act
		for id := range act.idx.idSet() {
			a.ids[id] = struct{}{}
		}
	} else if recs, idx, err := readAll(filepath.Join(opts.Dir, activeName), true); err == nil {
		// Read-only: snapshot the active segment's index without touching
		// the file (a torn tail just ends the snapshot early).
		a.active = &activeSegment{path: filepath.Join(opts.Dir, activeName), idx: idx, readOnly: true, records: recs}
		for id := range idx.idSet() {
			a.ids[id] = struct{}{}
		}
	}
	return a, nil
}

// scanDir loads the sealed segments, repairing index/segment orphans.
func (a *Archive) scanDir() error {
	entries, err := os.ReadDir(a.opts.Dir)
	if err != nil {
		if os.IsNotExist(err) && a.opts.ReadOnly {
			return nil // an empty archive reads as empty
		}
		return fmt.Errorf("archive: %w", err)
	}
	segs := map[int64]bool{}
	idxs := map[int64]bool{}
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name(), segSuffix); ok {
			segs[seq] = true
		} else if seq, ok := parseSegName(e.Name(), idxSuffix); ok {
			idxs[seq] = true
		}
	}
	// An index without its segment is a seal that crashed before the
	// rename; the records are still in active.seg, so the index is stale.
	for seq := range idxs {
		if !segs[seq] {
			if a.opts.ReadOnly {
				continue
			}
			path := a.segPath(seq, idxSuffix)
			a.opts.Logf("archive: removing orphan index %s", path)
			os.Remove(path)
		}
	}
	seqs := make([]int64, 0, len(segs))
	for seq := range segs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		segPath := a.segPath(seq, segSuffix)
		idx, err := loadIndex(a.segPath(seq, idxSuffix))
		if err != nil {
			// A segment without its index is a seal that crashed between
			// rename and index commit — rebuild by scanning.
			a.opts.Logf("archive: rebuilding index for %s: %v", segPath, err)
			_, idx, err = readAll(segPath, false)
			if err != nil {
				return fmt.Errorf("archive: rebuild index for %s: %w", segPath, err)
			}
			if !a.opts.ReadOnly {
				if err := idx.write(a.segPath(seq, idxSuffix)); err != nil {
					return err
				}
			}
		}
		a.sealed = append(a.sealed, &sealedSegment{seq: seq, path: segPath, idx: idx})
		for _, id := range idx.IDs {
			a.ids[id] = struct{}{}
		}
	}
	return nil
}

const (
	activeName = "active.seg"
	segPrefix  = "seg-"
	segSuffix  = ".seg"
	idxSuffix  = ".idx"
)

func (a *Archive) segPath(seq int64, suffix string) string {
	return filepath.Join(a.opts.Dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, suffix))
}

// parseSegName extracts the sequence number from "seg-<n>(.seg|.idx)".
func parseSegName(name, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(suffix)]
	var seq int64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil || mid == "" {
		return 0, false
	}
	return seq, true
}

// Append durably adds one record: framed, written, and fsync'd to the
// active segment before returning. Records deduplicate by ID — appending an
// ID the archive already holds is a no-op, which is what makes the
// service's retire-then-delete sequence idempotent across crashes.
func (a *Archive) Append(rec *Record) error {
	if rec.ID == "" {
		return errors.New("archive: record has no ID")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	if a.opts.ReadOnly {
		return ErrReadOnly
	}
	if _, dup := a.ids[rec.ID]; dup {
		return nil
	}
	frame, err := a.enc.encode(rec)
	if err != nil {
		return err
	}
	if err := a.active.append(rec, frame); err != nil {
		return err
	}
	a.ids[rec.ID] = struct{}{}
	if a.active.size >= a.opts.SegmentBytes {
		return a.rollLocked()
	}
	return nil
}

// rollLocked seals the active segment: index committed via atomicio, file
// renamed into the sealed sequence, fresh active segment created.
func (a *Archive) rollLocked() error {
	if a.active.idx.Count == 0 {
		return nil
	}
	seq := int64(1)
	if n := len(a.sealed); n > 0 {
		seq = a.sealed[n-1].seq + 1
	}
	seg, err := a.active.seal(a.segPath(seq, segSuffix), a.segPath(seq, idxSuffix))
	if err != nil {
		return err
	}
	seg.seq = seq
	a.sealed = append(a.sealed, seg)
	act, err := openActive(filepath.Join(a.opts.Dir, activeName), a.opts.Logf)
	if err != nil {
		return err
	}
	a.active = act
	return nil
}

// Has reports whether a record with the given ID is archived (durably, in
// the active or a sealed segment).
func (a *Archive) Has(id string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.ids[id]
	return ok
}

// Stats is the archive's size snapshot.
type Stats struct {
	// Records counts archived records across every segment.
	Records int
	// Bytes is the total on-disk size (sealed segments plus active).
	Bytes int64
	// Segments counts sealed segments (the active segment is excluded).
	Segments int
	// OldestTime/NewestTime bound the archived RetiredAt range (unix
	// seconds; zero when empty).
	OldestTime, NewestTime int64
}

// Stats reports the current sizes.
func (a *Archive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var st Stats
	for _, s := range a.sealed {
		st.Records += s.idx.Count
		st.Bytes += s.idx.Bytes
		st.Segments++
		st.merge(s.idx)
	}
	if a.active != nil {
		st.Records += a.active.idx.Count
		st.Bytes += a.active.size
		st.merge(a.active.idx)
	}
	return st
}

func (st *Stats) merge(idx *Index) {
	if idx.Count == 0 {
		return
	}
	if st.OldestTime == 0 || idx.MinTime < st.OldestTime {
		st.OldestTime = idx.MinTime
	}
	if idx.MaxTime > st.NewestTime {
		st.NewestTime = idx.MaxTime
	}
}

// GCResult reports what a GC pass reclaimed.
type GCResult struct {
	Segments int   // sealed segments deleted
	Records  int   // records dropped with them
	Bytes    int64 // bytes reclaimed
}

// GC applies the retention policy: sealed segments are dropped oldest
// first while the archive exceeds maxBytes, and any sealed segment whose
// newest record is older than maxAge is dropped regardless of size. Zero
// disables the corresponding bound. The active segment is never collected,
// so the most recent records always survive. Collection is tombstone-free:
// a segment is reclaimed by unlinking its two files.
func (a *Archive) GC(maxAge time.Duration, maxBytes int64, now time.Time) (GCResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var res GCResult
	if a.closed {
		return res, ErrClosed
	}
	if a.opts.ReadOnly {
		return res, ErrReadOnly
	}
	total := int64(0)
	for _, s := range a.sealed {
		total += s.idx.Bytes
	}
	if a.active != nil {
		total += a.active.size
	}
	cutoff := int64(0)
	if maxAge > 0 {
		cutoff = now.Add(-maxAge).Unix()
	}
	for len(a.sealed) > 0 {
		oldest := a.sealed[0]
		expired := cutoff > 0 && oldest.idx.MaxTime < cutoff
		over := maxBytes > 0 && total > maxBytes
		if !expired && !over {
			break
		}
		if err := os.Remove(oldest.path); err != nil && !os.IsNotExist(err) {
			return res, fmt.Errorf("archive: gc: %w", err)
		}
		os.Remove(a.segPath(oldest.seq, idxSuffix))
		for _, id := range oldest.idx.IDs {
			delete(a.ids, id)
		}
		total -= oldest.idx.Bytes
		res.Segments++
		res.Records += oldest.idx.Count
		res.Bytes += oldest.idx.Bytes
		a.sealed = a.sealed[1:]
	}
	return res, nil
}

// Close closes the active segment. Archived state is already durable (every
// append fsyncs), so Close is not a commit point.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	if a.active != nil {
		return a.active.close()
	}
	return nil
}
