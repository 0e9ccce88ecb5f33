package service

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
)

// A job's event stream is kept as encoded NDJSON lines: each record is
// encoded once, at publish, into the bytes every subscriber receives.

// streamBuffer bounds the per-job replay window: a late subscriber sees at
// most this many trailing records before the live tail.
const streamBuffer = 1024

// subscriberLines bounds the lines a subscriber may have pending: its
// replay plus a little live headroom. A reader that falls further behind
// loses lines — the stream is telemetry, and a stalled client must not
// stall the engine.
const subscriberLines = streamBuffer + 16

// liveHeadroom is the room, in bytes, a new subscriber's buffer leaves for
// live lines beyond its replay.
const liveHeadroom = 4096

// lineLog holds the last streamBuffer lines of a job's stream, contiguous
// in buf, so a late subscriber's replay is one slice. Dropping the oldest
// line advances head; once a window's worth of lines has been dropped,
// the live ones move to the front of buf, so each line is copied O(1)
// times amortised.
type lineLog struct {
	buf    []byte
	starts []int // starts[i] is the offset of line i in buf; lines before head are dropped
	head   int
}

// add encodes rec as the newest line, dropping the oldest line beyond the
// window, and returns the line. ok is false, and nothing is added, when
// rec holds a float JSON cannot carry.
func (l *lineLog) add(rec *StreamRecord) (line []byte, ok bool) {
	start := len(l.buf)
	if l.buf, ok = appendRecord(l.buf, rec); !ok {
		l.buf = l.buf[:start]
		return nil, false
	}
	l.starts = append(l.starts, start)
	if len(l.starts)-l.head > streamBuffer {
		l.head++
	}
	if l.head == streamBuffer {
		off := l.starts[l.head]
		l.buf = l.buf[:copy(l.buf, l.buf[off:])]
		l.starts = l.starts[:copy(l.starts, l.starts[l.head:])]
		for i := range l.starts {
			l.starts[i] -= off
		}
		l.head = 0
	}
	return l.buf[l.starts[len(l.starts)-1]:], true
}

// lines returns the number of lines in the window.
func (l *lineLog) lines() int { return len(l.starts) - l.head }

// bytes returns the window's lines, oldest first.
func (l *lineLog) bytes() []byte {
	if l.lines() == 0 {
		return nil
	}
	return l.buf[l.starts[l.head]:]
}

// subscriber is one live reader of a job's stream. Its fields are guarded
// by the job's mutex; wake (capacity 1) tells the reader to collect.
type subscriber struct {
	pending []byte // lines not yet collected
	lines   int    // lines in pending
	closed  bool   // no more lines will come
	wake    chan struct{}
}

// add buffers a line for the reader unless it is too far behind.
func (s *subscriber) add(line []byte) {
	if s.lines >= subscriberLines {
		return
	}
	s.pending = append(s.pending, line...)
	s.lines++
	s.signal()
}

func (s *subscriber) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// appendRecord appends rec's NDJSON line to b: the bytes json.Encoder
// writes for it, newline included, without a pass through reflection or
// the encoder's pooled state (so a replica's stream allocates nothing per
// record). ok is false when rec holds a NaN or infinite float.
// TestAppendRecordMatchesEncoder pins the equivalence field by field.
func appendRecord(b []byte, rec *StreamRecord) (_ []byte, ok bool) {
	b = append(b, `{"type":`...)
	b = appendString(b, rec.Type)
	b = append(b, `,"job":`...)
	b = appendString(b, rec.Job)
	if rec.State != "" {
		b = append(b, `,"state":`...)
		b = appendString(b, string(rec.State))
	}
	if rec.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, rec.Error)
	}
	if rec.Done != 0 {
		b = append(b, `,"done":`...)
		b = strconv.AppendInt(b, int64(rec.Done), 10)
	}
	if rec.Total != 0 {
		b = append(b, `,"total":`...)
		b = strconv.AppendInt(b, int64(rec.Total), 10)
	}
	if e := rec.Event; e != nil {
		b = append(b, `,"event":{`...)
		if e.Run != "" {
			b = append(b, `"run":`...)
			b = appendString(b, e.Run)
			b = append(b, ',')
		}
		b = append(b, `"kind":`...)
		b = appendString(b, e.Kind)
		b = append(b, `,"move":`...)
		b = strconv.AppendInt(b, e.Move, 10)
		if e.Temp != 0 {
			b = append(b, `,"temp":`...)
			b = strconv.AppendInt(b, int64(e.Temp), 10)
		}
		if e.Chain != 0 {
			b = append(b, `,"chain":`...)
			b = strconv.AppendInt(b, int64(e.Chain), 10)
		}
		for _, f := range [...]struct {
			key string
			v   float64
		}{{`,"delta":`, e.Delta}, {`,"cost":`, e.Cost}, {`,"best":`, e.Best}} {
			if f.v == 0 {
				continue
			}
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return b, false
			}
			b = append(b, f.key...)
			b = appendFloat(b, f.v)
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...), true
}

// appendString appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes is copied as is — every string the
// stream carries but an error message; anything else goes through
// json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// A string always marshals. The clone keeps s, and the record
			// holding it, off the heap on the fast path.
			q, _ := json.Marshal(strings.Clone(s))
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json formats a float64: like
// ES6 number-to-string, %f unless the magnitude calls for an exponent,
// whose leading zero is dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// replayCompressor compresses finished jobs' replays. One flate.Writer,
// about a megabyte of state, is reused under the mutex, as the archive's
// frameEncoder reuses its own; a sync.Pool would not do, since the GC
// empties it and every refill costs a whole writer. A Manager owns one and
// hands it to each of its jobs.
type replayCompressor struct {
	mu  sync.Mutex
	zw  *flate.Writer
	buf bytes.Buffer
}

// compress returns the flate-compressed form of a finished job's replay
// window.
func (z *replayCompressor) compress(raw []byte) []byte {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.buf.Reset()
	if z.zw == nil {
		// BestSpeed is a valid level, so NewWriter cannot fail.
		z.zw, _ = flate.NewWriter(&z.buf, flate.BestSpeed)
	} else {
		z.zw.Reset(&z.buf)
	}
	// Writes into a bytes.Buffer cannot fail.
	_, _ = z.zw.Write(raw)
	_ = z.zw.Close()
	return bytes.Clone(z.buf.Bytes())
}
