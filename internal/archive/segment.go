package archive

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Record is one archived job. It carries the queryable headline fields
// (what the sparse index summarizes and filters run over) plus the job's
// full result envelope for consumers that need everything — the archive is
// the job directory's compacted replacement, not a lossy summary.
type Record struct {
	// ID is the job ID; records deduplicate on it.
	ID string `json:"id"`
	// Fingerprint is the job spec's checkpoint fingerprint, %016x.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Kind is the registered problem kind; Size its headline dimension
	// (cells for netlist kinds, n for the generator kinds).
	Kind string `json:"kind"`
	Size int    `json:"size,omitempty"`
	// G is the acceptance-function class label; Ys the resolved temperature
	// schedule the job actually ran (empty for schedule-free classes) —
	// what tuner.WarmStart mines for priors.
	G  string    `json:"g,omitempty"`
	Ys []float64 `json:"ys,omitempty"`
	// Budget, Runs, Seed and ProblemSeed echo the spec's repetition
	// discipline.
	Budget      int64  `json:"budget,omitempty"`
	Runs        int    `json:"runs,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	ProblemSeed uint64 `json:"problem_seed,omitempty"`
	// State is the terminal state: done, failed, or cancelled.
	State string `json:"state"`
	// Seq is the job's submit order; RetiredAt the archive time (unix
	// seconds); RunMillis the wall-clock run duration when known (0 for
	// jobs restored by a restart, whose timing died with the process).
	Seq       int64 `json:"seq,omitempty"`
	RetiredAt int64 `json:"retired_at"`
	RunMillis int64 `json:"run_millis,omitempty"`
	// BestCost, Reduction, and FinalCosts summarize a done job's replica
	// grid: the winning cost, the suite-style total initial−best, and each
	// replica's best cost in slot order.
	BestCost   float64   `json:"best_cost,omitempty"`
	Reduction  float64   `json:"reduction,omitempty"`
	FinalCosts []float64 `json:"final_costs,omitempty"`
	// Error is a failed job's message.
	Error string `json:"error,omitempty"`
	// Envelope is the committed result artifact (result.json) of a done
	// job, verbatim.
	Envelope json.RawMessage `json:"envelope,omitempty"`
}

// Segment framing (little-endian):
//
//	header  "MCARC001"
//	frame   rawLen uint32 | compLen uint32 | comp[compLen] | crc32 uint32
//
// comp is the flate-compressed JSON record; rawLen its decompressed size.
// The CRC (IEEE) covers the 8-byte length prefix and the compressed bytes,
// mirroring the checkpoint journal's framing so the same torn-tail
// recovery logic applies: a crash mid-append leaves a frame the CRC or a
// short read rejects, and the tail is truncated at open.
const segMagic = "MCARC001"

// maxRecordBytes bounds a record's decompressed size, protecting the scan
// from a corrupt length field demanding a giant allocation. Result
// envelopes carry every replica's solution, so the bound is generous.
const maxRecordBytes = 64 << 20

// CorruptError reports a damaged frame inside a segment. Scan surfaces it
// after delivering every intact record before the damage, so callers keep
// the readable prefix and know exactly where the archive is hurt.
type CorruptError struct {
	Path   string // segment file
	Offset int64  // byte offset of the bad frame
	Reason string
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("archive: %s: corrupt frame at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// frameEncoder compresses and frames records, reusing one flate.Writer and
// one frame buffer across records. flate.Writer.Reset makes the writer
// equivalent to a fresh one, so a frame's bytes do not depend on the
// records encoded before it. Not safe for concurrent use: the archive holds
// its encoder under the mutex that serializes appends.
type frameEncoder struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

// encode returns the framed record. The frame aliases the encoder's buffer
// and is valid until the next encode.
func (e *frameEncoder) encode(rec *Record) ([]byte, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("archive: encode record %s: %w", rec.ID, err)
	}
	if len(raw) > maxRecordBytes {
		return nil, fmt.Errorf("archive: record %s is %d bytes (limit %d)", rec.ID, len(raw), maxRecordBytes)
	}
	e.buf.Reset()
	var lens [8]byte
	e.buf.Write(lens[:]) // filled in once the compressed length is known
	if e.zw == nil {
		if e.zw, err = flate.NewWriter(&e.buf, flate.BestSpeed); err != nil {
			return nil, err
		}
	} else {
		e.zw.Reset(&e.buf)
	}
	if _, err := e.zw.Write(raw); err != nil {
		return nil, err
	}
	if err := e.zw.Close(); err != nil {
		return nil, err
	}
	frame := e.buf.Bytes()
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(raw)))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(frame)-8))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(frame))
	e.buf.Write(sum[:])
	return e.buf.Bytes(), nil
}

// frameReader iterates the frames of one segment stream.
type frameReader struct {
	r    io.Reader
	path string
	off  int64 // absolute offset of the next frame
}

// next decodes one frame. io.EOF means a clean end. A torn or corrupt
// frame returns *CorruptError with the frame's offset; the caller decides
// whether that is damage (sealed segment) or an expected crash tail (the
// active segment at open, which truncates).
func (fr *frameReader) next() (*Record, error) {
	frameStart := fr.off
	var fixed [8]byte
	n, err := io.ReadFull(fr.r, fixed[:])
	fr.off += int64(n)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, &CorruptError{Path: fr.path, Offset: frameStart, Reason: "torn length prefix"}
	}
	rawLen := binary.LittleEndian.Uint32(fixed[:4])
	compLen := binary.LittleEndian.Uint32(fixed[4:])
	if rawLen > maxRecordBytes || compLen > maxRecordBytes {
		return nil, &CorruptError{Path: fr.path, Offset: frameStart,
			Reason: fmt.Sprintf("implausible frame lengths raw=%d comp=%d", rawLen, compLen)}
	}
	buf := make([]byte, int(compLen)+4)
	n, err = io.ReadFull(fr.r, buf)
	fr.off += int64(n)
	if err != nil {
		return nil, &CorruptError{Path: fr.path, Offset: frameStart, Reason: "torn frame body"}
	}
	comp, sum := buf[:compLen], binary.LittleEndian.Uint32(buf[compLen:])
	crc := crc32.NewIEEE()
	crc.Write(fixed[:])
	crc.Write(comp)
	if crc.Sum32() != sum {
		return nil, &CorruptError{Path: fr.path, Offset: frameStart, Reason: "CRC mismatch"}
	}
	rec, err := decodeFramePayload(comp, rawLen)
	if err != nil {
		return nil, &CorruptError{Path: fr.path, Offset: frameStart, Reason: err.Error()}
	}
	return rec, nil
}

// decodeFramePayload decompresses and unmarshals a CRC-validated frame
// body. Split out (and fuzzed by FuzzDecodeFrame) so decoder robustness is
// pinned independently of file handling.
func decodeFramePayload(comp []byte, rawLen uint32) (*Record, error) {
	if rawLen > maxRecordBytes {
		return nil, fmt.Errorf("implausible raw length %d", rawLen)
	}
	zr := flate.NewReader(bytes.NewReader(comp))
	defer zr.Close()
	raw := make([]byte, 0, rawLen)
	// Read one byte past the declared size to reject payloads that
	// decompress beyond it, without trusting rawLen for allocation.
	lr := io.LimitReader(zr, int64(rawLen)+1)
	buf := bytes.NewBuffer(raw)
	n, err := io.Copy(buf, lr)
	if err != nil {
		return nil, fmt.Errorf("decompress: %v", err)
	}
	if n != int64(rawLen) {
		return nil, fmt.Errorf("decompressed %d bytes, frame declared %d", n, rawLen)
	}
	var rec Record
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("decode record: %v", err)
	}
	if rec.ID == "" {
		return nil, errors.New("record has no ID")
	}
	return &rec, nil
}

// activeSegment is the segment being appended to.
type activeSegment struct {
	f        *os.File // nil in read-only snapshots
	path     string
	size     int64
	idx      *Index
	readOnly bool
	// records caches a read-only snapshot's decoded records so Scan does
	// not re-read a file another process is appending to mid-frame.
	records []*Record
}

// openActive opens (or creates) the active segment for appending,
// truncating any torn tail a crash left behind.
func openActive(path string, logf func(string, ...any)) (*activeSegment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: %s: %w", path, err)
	}
	act := &activeSegment{f: f, path: path, idx: newIndex()}
	if size < int64(len(segMagic)) {
		// Fresh (or header-torn) file: start over with a clean header.
		if err := act.reset(); err != nil {
			f.Close()
			return nil, err
		}
		return act, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: %s: %w", path, err)
	}
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != segMagic {
		f.Close()
		return nil, fmt.Errorf("archive: %s: bad segment magic %q", path, hdr)
	}
	fr := &frameReader{r: f, path: path, off: int64(len(segMagic))}
	end := fr.off
	for {
		rec, err := fr.next()
		if err == io.EOF {
			break
		}
		var ce *CorruptError
		if errors.As(err, &ce) {
			// The crash tail: truncate to the last intact frame.
			logf("archive: %s: truncating torn tail at %d (%s)", path, ce.Offset, ce.Reason)
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		act.idx.add(rec)
		end = fr.off
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: %s: %w", path, err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: %s: %w", path, err)
	}
	act.size = end
	return act, nil
}

// reset truncates the file to a fresh header.
func (s *activeSegment) reset() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("archive: %s: %w", s.path, err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("archive: %s: %w", s.path, err)
	}
	if _, err := s.f.Write([]byte(segMagic)); err != nil {
		return fmt.Errorf("archive: %s: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("archive: %s: %w", s.path, err)
	}
	s.size = int64(len(segMagic))
	s.idx = newIndex()
	return syncDir(filepath.Dir(s.path))
}

// append writes and fsyncs one record's frame; durable on return.
func (s *activeSegment) append(rec *Record, frame []byte) error {
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("archive: append %s: %w", rec.ID, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("archive: append %s: %w", rec.ID, err)
	}
	s.size += int64(len(frame))
	s.idx.add(rec)
	return nil
}

// seal finalizes the active segment into segPath: index committed first
// (via atomicio, so a reader never sees a partial index), then the rename.
// A crash between the two leaves an orphan index that Open removes — the
// records are still in active.seg, so nothing is lost. Once the rename
// lands, segment and index are both complete; Open can also rebuild a
// missing index by scanning, covering a hand-deleted .idx.
func (s *activeSegment) seal(segPath, idxPath string) (*sealedSegment, error) {
	s.idx.Bytes = s.size
	s.idx.finish()
	if err := s.idx.write(idxPath); err != nil {
		return nil, err
	}
	if err := s.f.Sync(); err != nil {
		return nil, fmt.Errorf("archive: seal %s: %w", s.path, err)
	}
	if err := s.f.Close(); err != nil {
		return nil, fmt.Errorf("archive: seal %s: %w", s.path, err)
	}
	if err := os.Rename(s.path, segPath); err != nil {
		return nil, fmt.Errorf("archive: seal %s: %w", s.path, err)
	}
	if err := syncDir(filepath.Dir(segPath)); err != nil {
		return nil, err
	}
	return &sealedSegment{path: segPath, idx: s.idx}, nil
}

func (s *activeSegment) close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// readAll scans a whole segment file, returning its records and a rebuilt
// index. With tolerateTear a torn tail ends the scan cleanly (the active
// segment's crash window); without it any bad frame is an error (sealed
// segments are immutable — damage there is real corruption).
func readAll(path string, tolerateTear bool) ([]*Record, *Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		if tolerateTear {
			return nil, newIndex(), nil
		}
		return nil, nil, fmt.Errorf("archive: %s: truncated header", path)
	}
	if string(hdr) != segMagic {
		return nil, nil, fmt.Errorf("archive: %s: bad segment magic %q", path, hdr)
	}
	idx := newIndex()
	var recs []*Record
	fr := &frameReader{r: f, path: path, off: int64(len(segMagic))}
	for {
		rec, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if tolerateTear {
				break
			}
			return recs, idx, err
		}
		recs = append(recs, rec)
		idx.add(rec)
	}
	if fi, err := f.Stat(); err == nil {
		idx.Bytes = fi.Size()
	}
	idx.finish()
	return recs, idx, nil
}

// syncDir fsyncs a directory (best effort, mirroring atomicio): some
// platforms cannot sync directories, and the rename is already atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
