package archive

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// encodeFrame frames one record with a fresh encoder.
func encodeFrame(rec *Record) ([]byte, error) {
	var enc frameEncoder
	return enc.encode(rec)
}

// writeFrames builds a segment file from records, returning the byte
// offset of each frame so tests can corrupt a specific one.
func writeFrames(t *testing.T, path string, recs ...*Record) []int64 {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	offs := make([]int64, 0, len(recs))
	for _, rec := range recs {
		offs = append(offs, int64(buf.Len()))
		frame, err := encodeFrame(rec)
		if err != nil {
			t.Fatalf("encodeFrame: %v", err)
		}
		buf.Write(frame)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return offs
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, activeName)
	writeFrames(t, path, testRecord(0), testRecord(1), testRecord(2))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame at every prefix length: a crash can stop the
	// write anywhere.
	offs := writeFrames(t, path, testRecord(0), testRecord(1), testRecord(2))
	lastStart := offs[2]
	for _, cut := range []int64{lastStart + 1, lastStart + 7, lastStart + 9, int64(len(full)) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := Open(Options{Dir: dir, Logf: t.Logf})
		if err != nil {
			t.Fatalf("Open with tail torn at %d: %v", cut, err)
		}
		recs, err := a.Records(Filter{}, 0)
		if err != nil {
			t.Fatalf("Records: %v", err)
		}
		if len(recs) != 2 {
			t.Fatalf("tail torn at %d: got %d records, want the 2 intact ones", cut, len(recs))
		}
		// The torn tail is gone for good: the next append lands cleanly.
		if err := a.Append(testRecord(9)); err != nil {
			t.Fatalf("Append after truncation: %v", err)
		}
		recs, _ = a.Records(Filter{}, 0)
		if len(recs) != 3 || recs[2].ID != testRecord(9).ID {
			t.Fatalf("append after truncation: %d records", len(recs))
		}
		a.Close()
	}
}

func TestOpenResetsTornHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, activeName)
	if err := os.WriteFile(path, []byte(segMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open with torn header: %v", err)
	}
	defer a.Close()
	if err := a.Append(testRecord(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if recs, _ := a.Records(Filter{}, 0); len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, activeName), []byte("NOTANARC-whatever"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Logf: t.Logf}); err == nil {
		t.Fatal("Open accepted a file with foreign magic as the active segment")
	}
}

func TestScanSurfacesMiddleCorruptionTyped(t *testing.T) {
	dir := t.TempDir()
	// Build a sealed segment by hand, then flip one byte inside the middle
	// record's frame.
	segPath := filepath.Join(dir, "seg-00000001.seg")
	offs := writeFrames(t, segPath, testRecord(0), testRecord(1), testRecord(2))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[offs[1]+10] ^= 0x01 // inside record 1's compressed body
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// No index on disk: Open must rebuild — and refuse, because a sealed
	// segment with a bad frame is real corruption, not a crash tail.
	if _, err := Open(Options{Dir: dir, Logf: t.Logf}); err == nil {
		t.Fatal("Open rebuilt an index over a corrupt sealed segment")
	}
	// With a valid index present (built before the corruption), Open
	// succeeds and Scan surfaces the damage as a typed error after
	// delivering the intact prefix.
	idx := newIndex()
	for i := 0; i < 3; i++ {
		idx.add(testRecord(i))
	}
	idx.Bytes = int64(len(data))
	idx.finish()
	if err := idx.write(filepath.Join(dir, "seg-00000001.idx")); err != nil {
		t.Fatal(err)
	}
	a, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open with indexed corrupt segment: %v", err)
	}
	defer a.Close()
	var seen []string
	err = a.Scan(Filter{}, func(rec *Record) bool {
		seen = append(seen, rec.ID)
		return true
	})
	var ce *CorruptError
	if !IsCorrupt(err) {
		t.Fatalf("Scan over corrupt middle record: got %v, want CorruptError", err)
	}
	if errors.As(err, &ce); ce.Offset != offs[1] || ce.Path != segPath {
		t.Fatalf("CorruptError points at %s:%d, want %s:%d", ce.Path, ce.Offset, segPath, offs[1])
	}
	if len(seen) != 1 || seen[0] != testRecord(0).ID {
		t.Fatalf("intact prefix not delivered before the error: %v", seen)
	}
}

func TestCRCMismatchDetected(t *testing.T) {
	rec := testRecord(0)
	frame, err := encodeFrame(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{0, 5, 8, len(frame) - 1} {
		mut := append([]byte(nil), frame...)
		mut[bit] ^= 0x40
		fr := &frameReader{r: bytes.NewReader(mut), path: "test"}
		if _, err := fr.next(); err == nil {
			t.Fatalf("flip at byte %d went undetected", bit)
		}
	}
	// The pristine frame still decodes.
	fr := &frameReader{r: bytes.NewReader(frame), path: "test"}
	got, err := fr.next()
	if err != nil || got.ID != rec.ID {
		t.Fatalf("pristine frame: %v, %v", got, err)
	}
}

func TestEncodeFrameRejectsOversizedRecord(t *testing.T) {
	rec := testRecord(0)
	rec.Envelope = bytes.Repeat([]byte("x"), maxRecordBytes+1)
	// Envelope is json.RawMessage; make it valid JSON so Marshal succeeds
	// and the size gate is what fires.
	rec.Envelope = append([]byte(`"`), append(bytes.Repeat([]byte("x"), maxRecordBytes), '"')...)
	if _, err := encodeFrame(rec); err == nil {
		t.Fatal("encodeFrame accepted a record over maxRecordBytes")
	}
}

func TestFrameLengthSanity(t *testing.T) {
	// A frame whose declared lengths are absurd must be rejected before any
	// allocation of that size.
	frame := make([]byte, 12)
	binary.LittleEndian.PutUint32(frame[:4], 1<<31)
	binary.LittleEndian.PutUint32(frame[4:8], 16)
	fr := &frameReader{r: bytes.NewReader(frame), path: "test"}
	_, err := fr.next()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("implausible length: got %v", err)
	}
}

// TestReusedEncoderMatchesFreshWriter pins that reusing one compressor
// across appends leaves the frame bytes unchanged: the frame an archive
// appends after earlier records, and the frame a reused encoder returns,
// both equal the record framed by hand with a fresh flate.Writer.
func TestReusedEncoderMatchesFreshWriter(t *testing.T) {
	rec := testRecord(7)
	rec.Envelope = []byte(`{"runs":[{"run":0,"best_cost":93}],"best_cost":93}`)
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(raw)
	zw.Close()
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(raw)))
	want = binary.LittleEndian.AppendUint32(want, uint32(comp.Len()))
	want = append(want, comp.Bytes()...)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))

	var enc frameEncoder
	for i := 0; i < 3; i++ {
		if _, err := enc.encode(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := enc.encode(rec); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reused encoder frame differs from a fresh writer's (err %v)", err)
	}

	dir := t.TempDir()
	a := openTest(t, dir, 0)
	defer a.Close()
	for i := 0; i < 5; i++ {
		if err := a.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, activeName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := data[before.Size():]; !bytes.Equal(got, want) {
		t.Fatalf("appended frame (%d bytes) differs from a fresh writer's (%d bytes)", len(got), len(want))
	}
}
