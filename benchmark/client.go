package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mcopt/internal/obs"
)

// requestTimeout bounds any single API call, streams included, so a hung
// server fails the run instead of hanging it.
const requestTimeout = 60 * time.Second

// apiClient is one closed-loop client of the HTTP API: one connection at a
// time, like a scripted `mcoptctl submit -wait`.
type apiClient struct {
	hc      *http.Client
	tr      *http.Transport
	base    string
	retried *atomic.Int64 // submits retried after 429/503, shared
	ctx     context.Context
	abort   context.CancelFunc // ends every call in flight with an error
}

func newAPIClient(base string, retried *atomic.Int64) *apiClient {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	ctx, abort := context.WithCancel(context.Background())
	return &apiClient{hc: &http.Client{Transport: tr}, tr: tr, base: base, retried: retried, ctx: ctx, abort: abort}
}

func (c *apiClient) close() {
	c.abort()
	c.tr.CloseIdleConnections()
}

func (c *apiClient) do(method, path string, body []byte) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(c.ctx, requestTimeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// get fetches path and returns its body, failing on any status but 200.
func (c *apiClient) get(path string) ([]byte, error) {
	resp, cancel, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: http %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// submit posts a spec and returns the new job's ID. Queue-full and
// draining answers are retried with backoff, as mcoptload does; each retry
// is counted.
func (c *apiClient) submit(spec []byte) (string, error) {
	backoff := 20 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, cancel, err := c.do(http.MethodPost, "/v1/jobs", spec)
		if err != nil {
			return "", err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			return "", fmt.Errorf("submit: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusCreated:
			var ack struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
				return "", fmt.Errorf("submit: bad acknowledgement %q", data)
			}
			return ack.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if attempt == 8 {
				return "", fmt.Errorf("submit: http %d after %d retries", resp.StatusCode, attempt)
			}
			c.retried.Add(1)
			time.Sleep(backoff)
			backoff *= 2
		default:
			return "", fmt.Errorf("submit: http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
	}
}

// stateLine prefixes the NDJSON lifecycle records (the encoder writes the
// type field first); engine event lines are only counted.
var stateLine = []byte(`{"type":"state"`)

// stream follows a job's NDJSON event stream until the server closes it,
// returning when the first line arrived, the line count and the last
// lifecycle state seen.
func (c *apiClient) stream(id string) (first time.Time, records int, state string, err error) {
	resp, cancel, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return first, 0, "", err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drainBody(resp)
		return first, 0, "", fmt.Errorf("events: http %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if records == 0 {
			first = time.Now()
		}
		records++
		line := sc.Bytes()
		if bytes.HasPrefix(line, stateLine) {
			var rec struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return first, records, state, fmt.Errorf("events: %w", err)
			}
			state = rec.State
		}
	}
	if err := sc.Err(); err != nil {
		return first, records, state, fmt.Errorf("events: %w", err)
	}
	return first, records, state, nil
}

// drainBody reads and closes a response body so its connection is reused.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// scrape fetches /metrics and strict-parses it.
func (c *apiClient) scrape() (*obs.Exposition, error) {
	data, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(bytes.NewReader(data))
}

// archivedIDs counts the archive's records per job ID.
func (c *apiClient) archivedIDs() (map[string]int, error) {
	data, err := c.get("/v1/archive/query?records=true&limit=0")
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rec struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("archive query: %w", err)
		}
		if rec.ID == "" {
			return nil, fmt.Errorf("archive query: %s", rec.Error)
		}
		out[rec.ID]++
	}
	return out, nil
}

// jobObs is what a client observed of one job.
type jobObs struct {
	spec    int // pool index
	id      string
	traced  bool
	post    time.Time // POST sent
	doneAt  time.Time // stream closed, or the failure observed
	submit  time.Duration
	first   time.Duration // POST to first stream line
	result  time.Duration
	records int
	err     error
	hash    hash
	server  []span // the job's server timeline, traced jobs only
}

func sha256Sum(data []byte) hash { return sha256.Sum256(data) }

func (j *jobObs) done() time.Duration { return j.doneAt.Sub(j.post) }

// artifactStore keeps one copy of each distinct artifact per spec, so the
// checks parse every distinct output once however often it repeats.
type artifactStore struct {
	mu     sync.Mutex
	bySpec map[int]map[hash][]byte
}

func (s *artifactStore) put(spec int, h hash, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bySpec == nil {
		s.bySpec = map[int]map[hash][]byte{}
	}
	m := s.bySpec[spec]
	if m == nil {
		m = map[hash][]byte{}
		s.bySpec[spec] = m
	}
	if _, ok := m[h]; !ok {
		m[h] = data
	}
}

func (s *artifactStore) get(spec int, h hash) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bySpec[spec][h]
}

// loadLoop is one closed-loop client: take the next round of the spec
// stream, submit its jobs, watch them in submit order, fetch each result,
// repeat until stop closes. Every observed job is appended to jobs.
type loadLoop struct {
	c       *apiClient
	st      *specStream
	next    *atomic.Int64
	rec     *recorder
	store   *artifactStore
	corrupt *atomic.Bool // when armed, the next fetched artifact is damaged once
	stop    <-chan struct{}

	mu   *sync.Mutex
	jobs *[]*jobObs
}

func (l *loadLoop) run() {
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		round := l.st.round(int(l.next.Add(1) - 1))
		traced := l.rec.on.Load()
		batch := make([]*jobObs, len(round))
		for k, p := range round {
			j := &jobObs{spec: p, traced: traced, post: time.Now()}
			j.id, j.err = l.c.submit(l.st.body[p])
			j.submit = time.Since(j.post)
			if j.err != nil {
				j.doneAt = time.Now()
			}
			batch[k] = j
		}
		for _, j := range batch {
			if j.err == nil {
				l.watch(j)
			}
		}
		l.mu.Lock()
		*l.jobs = append(*l.jobs, batch...)
		l.mu.Unlock()
	}
}

// watch streams one job to its end and fetches its artifact (and, traced,
// its server timeline).
func (l *loadLoop) watch(j *jobObs) {
	streamStart := time.Now()
	first, records, state, err := l.c.stream(j.id)
	j.doneAt = time.Now()
	j.records = records
	if !first.IsZero() {
		j.first = first.Sub(j.post)
	}
	if err == nil && state != "done" {
		err = fmt.Errorf("job %s: stream ended in state %q", j.id, state)
	}
	if err != nil {
		j.err = err
		return
	}
	resStart := time.Now()
	data, err := l.c.get("/v1/jobs/" + j.id + "/result")
	resEnd := time.Now()
	j.result = resEnd.Sub(resStart)
	if err != nil {
		j.err = err
		return
	}
	if l.corrupt.CompareAndSwap(true, false) {
		data = bytes.Replace(data, []byte(`"best_cost": `), []byte(`"best_cost": 1`), 1)
	}
	j.hash = sha256Sum(data)
	l.store.put(j.spec, j.hash, data)
	if !j.traced {
		return
	}
	trace := "client/" + j.id
	root := l.rec.add(trace, 0, "client.job", j.post, resEnd, 0)
	l.rec.add(trace, root, "client.submit", j.post, j.post.Add(j.submit), 0)
	l.rec.add(trace, root, "client.stream", streamStart, j.doneAt, 0)
	l.rec.add(trace, root, "client.result", resStart, resEnd, 0)
	raw, err := l.c.get("/v1/jobs/" + j.id + "/trace")
	if err == nil {
		var spans []obs.Span
		spans, err = obs.ReadSpans(bytes.NewReader(raw))
		j.server = serverSpans(spans)
	}
	if err != nil {
		j.err = fmt.Errorf("job %s: trace: %w", j.id, err)
	}
}
