package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mcopt/internal/faultinject"
	"mcopt/internal/lease"
	"mcopt/internal/obs"
	"mcopt/internal/runnerclient"
)

// API routes (all under /v1 except the operational probes):
//
//	POST   /v1/jobs             submit a job (Idempotency-Key honored)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events NDJSON stream: state transitions + engine events
//	GET    /v1/jobs/{id}/result the committed result artifact (done jobs)
//	GET    /v1/jobs/{id}/trace  span timeline: submit → queue → replica[i] → commit
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/runners          register a fleet runner (fingerprint handshake)
//	POST   /v1/runners/{id}/leases  acquire a replica-range lease (204 = no work)
//	POST   /v1/leases/{id}/renew    heartbeat a lease
//	POST   /v1/leases/{id}/commit   commit one computed slot
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 while draining)
//	GET    /metrics             Prometheus text exposition of the obs registry
//
// Every route runs under the obs middleware, which records request counts
// and latency histograms per route pattern and status code.

// maxSpecBytes bounds a submitted spec (inline netlists included).
const maxSpecBytes = 4 << 20

// HandlerConfig shapes the HTTP layer.
type HandlerConfig struct {
	// RequestTimeout bounds non-streaming request handling (default 30s).
	// The events stream is exempt: it is long-lived by design.
	RequestTimeout time.Duration
}

// NewHandler builds the service's HTTP API over a manager.
func NewHandler(m *Manager, cfg HandlerConfig) http.Handler {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s := &server{m: m}
	mux := http.NewServeMux()
	// handle registers pattern with the obs middleware (the route label is
	// the pattern, so cardinality is fixed by this table) around the
	// request-timeout wrapper.
	handle := func(pattern string, h http.HandlerFunc, timed bool) {
		var wrapped http.Handler = h
		if timed {
			wrapped = http.TimeoutHandler(h, cfg.RequestTimeout, `{"error":"request timed out"}`)
		}
		mux.Handle(pattern, m.obs.instrument(pattern, wrapped))
	}
	handle("POST /v1/jobs", s.submit, true)
	handle("GET /v1/jobs/{id}", s.status, true)
	handle("GET /v1/jobs/{id}/result", s.result, true)
	handle("GET /v1/jobs/{id}/trace", s.trace, true)
	handle("DELETE /v1/jobs/{id}", s.cancel, true)
	handle("GET /v1/jobs/{id}/events", s.events, false) // long-lived by design
	// Fleet API: runner registration and the lease lifecycle (DESIGN.md §14).
	handle("POST /v1/runners", s.registerRunner, true)
	handle("POST /v1/runners/{id}/leases", s.acquireLease, true)
	handle("POST /v1/leases/{id}/renew", s.renewLease, true)
	handle("POST /v1/leases/{id}/commit", s.commitLease, true)
	handle("GET /v1/archive/query", s.archiveQuery, true)
	handle("GET /healthz", s.healthz, true)
	handle("GET /readyz", s.readyz, true)
	handle("GET /metrics", s.metrics, true)
	return mux
}

type server struct {
	m *Manager
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The connection is the only place left to report an encode failure;
	// dropping it is all we can do.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// submitResponse acknowledges a submission.
type submitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Created is false when an idempotency key matched an earlier
	// submission and that job was returned instead.
	Created bool `json:"created"`
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	key := r.Header.Get("Idempotency-Key")
	job, created, err := s.m.Submit(spec, key)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		var verr *ValidationError
		if errors.As(err, &verr) {
			writeError(w, http.StatusBadRequest, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	code := http.StatusCreated
	if !created {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{ID: job.ID, State: job.State(), Created: created})
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, err := s.m.Result(j.ID)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	state, err := s.m.Cancel(j.ID)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID    string `json:"id"`
		State State  `json:"state"`
	}{ID: j.ID, State: state})
}

// events streams the job's records as NDJSON until the job is terminal or
// the client goes away. Records buffered before the subscription replay
// first, so a watcher attached after submission still sees the whole
// skeleton of a short job.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	ch, cancel := j.Subscribe()
	defer cancel()
	ctx := r.Context()
	for {
		select {
		case rec, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(rec); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			return
		}
	}
}

// writeFleetError answers a fleet request with runnerclient's error body:
// a message plus the machine-readable code the client maps onto sentinels.
func writeFleetError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(runnerclient.APIError{Error: msg, Code: code})
}

// leaseError translates lease table errors onto the wire: epoch failures
// and stolen slots are both 409s distinguished by code, so the runner can
// branch without parsing messages.
func leaseError(w http.ResponseWriter, err error) {
	var ee *lease.EpochError
	if errors.As(err, &ee) {
		writeFleetError(w, http.StatusConflict, runnerclient.CodeEpoch, ee.Error())
		return
	}
	var nh *lease.NotHeldError
	if errors.As(err, &nh) {
		writeFleetError(w, http.StatusConflict, runnerclient.CodeNotHeld, nh.Error())
		return
	}
	writeFleetError(w, http.StatusInternalServerError, "", err.Error())
}

func (s *server) registerRunner(w http.ResponseWriter, r *http.Request) {
	var req runnerclient.RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		writeFleetError(w, http.StatusBadRequest, "", "decode register request: "+err.Error())
		return
	}
	id, err := s.m.coord.register(req.Name, req.Fingerprint)
	if err != nil {
		writeFleetError(w, http.StatusConflict, runnerclient.CodeVersion, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, runnerclient.RegisterResponse{
		ID:             id,
		LeaseTTLMillis: s.m.cfg.LeaseTTL.Milliseconds(),
		PollMillis:     (s.m.cfg.LeaseTTL / 10).Milliseconds(),
	})
}

func (s *server) acquireLease(w http.ResponseWriter, r *http.Request) {
	runnerID := r.PathValue("id")
	if !s.m.coord.touch(runnerID) {
		writeFleetError(w, http.StatusNotFound, runnerclient.CodeUnknownRunner,
			"unknown runner "+runnerID+" (coordinator restarted?)")
		return
	}
	g, dj, ok := s.m.coord.acquire(runnerID)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, runnerclient.LeaseGrant{
		Lease:     wireLeaseID(dj.job.ID, g.ID),
		Epoch:     g.Epoch,
		Job:       dj.job.ID,
		Spec:      dj.spec,
		Start:     g.Start,
		End:       g.End,
		Done:      g.Done,
		TTLMillis: s.m.cfg.LeaseTTL.Milliseconds(),
		Stolen:    g.Stolen,
	})
}

func (s *server) renewLease(w http.ResponseWriter, r *http.Request) {
	var req runnerclient.RenewRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		writeFleetError(w, http.StatusBadRequest, "", "decode renew request: "+err.Error())
		return
	}
	s.m.coord.touchLease(r.PathValue("id"))
	dj, tableID, ok := s.m.coord.route(r.PathValue("id"))
	if !ok {
		writeFleetError(w, http.StatusConflict, runnerclient.CodeEpoch,
			"lease "+r.PathValue("id")+": job is no longer being distributed")
		return
	}
	if _, err := dj.table.Renew(tableID, req.Epoch); err != nil {
		leaseError(w, err)
		return
	}
	s.m.obs.leaseRenewals.Inc()
	writeJSON(w, http.StatusOK, runnerclient.RenewResponse{TTLMillis: s.m.cfg.LeaseTTL.Milliseconds()})
}

func (s *server) commitLease(w http.ResponseWriter, r *http.Request) {
	var req runnerclient.CommitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&req); err != nil {
		writeFleetError(w, http.StatusBadRequest, "", "decode commit request: "+err.Error())
		return
	}
	s.m.coord.touchLease(r.PathValue("id"))
	dj, tableID, ok := s.m.coord.route(r.PathValue("id"))
	if !ok {
		// The job finished or stopped: its committed slots are durable, so
		// the runner should abandon the window, not retry.
		s.m.obs.leaseCommits.With(commitEpoch).Inc()
		writeFleetError(w, http.StatusConflict, runnerclient.CodeEpoch,
			"lease "+r.PathValue("id")+": job is no longer being distributed")
		return
	}
	wasCommitted := dj.table.Committed(req.Slot)
	err := dj.table.Commit(tableID, req.Epoch, req.Slot, req.Payload)
	switch {
	case err == nil && wasCommitted:
		s.m.obs.leaseCommits.With(commitDuplicate).Inc()
	case err == nil:
		s.m.obs.leaseCommits.With(commitOK).Inc()
	default:
		var ee *lease.EpochError
		var nh *lease.NotHeldError
		switch {
		case errors.As(err, &ee):
			s.m.obs.leaseCommits.With(commitEpoch).Inc()
		case errors.As(err, &nh):
			s.m.obs.leaseCommits.With(commitNotHeld).Inc()
		default:
			s.m.obs.leaseCommits.With(commitError).Inc()
		}
		leaseError(w, err)
		return
	}
	// The journal append above is durable; a fault here fails only the
	// reply, driving the runner's retry down the idempotent-commit path —
	// the kill-mid-commit window chaos tests aim at.
	if err := faultinject.Point("coord.commit"); err != nil {
		writeFleetError(w, http.StatusInternalServerError, "", err.Error())
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.m.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// metrics serves the obs registry in Prometheus text exposition format —
// the machine-readable surface scrapers, alerts, and the auto-tuner consume.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.m.Registry().WritePrometheus(w); err != nil {
		writeError(w, http.StatusInternalServerError, err)
	}
}

// trace serves a job's span timeline as NDJSON: the committed trace file
// for terminal jobs, a live snapshot otherwise.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, err := s.m.TraceData(j.ID)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = w.Write(data)
}
