package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcopt/internal/buildinfo"
	"mcopt/internal/runnerclient"
	"mcopt/internal/service"
)

// harness is one in-process deployment: the manager and HTTP API exactly
// as mcoptd wires them with its default flags, plus, for the fleet, two
// runner loops with mcoptrunner's defaults. Nothing is built or spawned,
// and the listener takes a free loopback port.
type harness struct {
	dir  string
	mgr  *service.Manager
	srv  *http.Server
	ln   net.Listener
	base string
	// hangNext, when armed, makes the next event stream hang until its
	// client gives up, as the stream of a job that never finishes would
	// (self-test only).
	hangNext atomic.Bool

	served        chan struct{}
	closeOnce     sync.Once
	runnerCancel  context.CancelFunc
	runnerWG      sync.WaitGroup
	runnerClients []*runnerclient.Client
	transports    []*http.Transport
}

// mcoptd's flag defaults; the benchmark changes only what a workload names.
const (
	defaultWorkers        = 2
	defaultMaxQueue       = 64
	defaultRunWorkers     = 1
	defaultRequestTimeout = 30 * time.Second
	defaultLeaseTTL       = 10 * time.Second
	defaultLeaseChunk     = 8
	defaultRetireAge      = time.Hour
	defaultRetireSweep    = 10 * time.Second
	// fastRetireSweep pairs with a workload's short retire age so
	// retirement runs continuously instead of in 10 s bursts.
	fastRetireSweep = 200 * time.Millisecond
	runnerCount     = 2
)

func nopLogf(string, ...any) {}

// openHarness starts a deployment over a fresh data directory under root.
// With fleet set it starts the runners and returns once both registered.
func openHarness(root string, w *workload, fleet bool, rec *recorder) (*harness, error) {
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{
		Dir:            dir,
		Workers:        defaultWorkers,
		MaxQueue:       defaultMaxQueue,
		RunWorkers:     defaultRunWorkers,
		Logf:           nopLogf,
		LeaseTTL:       defaultLeaseTTL,
		LeaseChunk:     defaultLeaseChunk,
		ArchiveDir:     filepath.Join(dir, "archive"),
		RetireAge:      defaultRetireAge,
		RetireInterval: defaultRetireSweep,
	}
	if w.retireAge > 0 {
		cfg.RetireAge, cfg.RetireInterval = w.retireAge, fastRetireSweep
	}
	h := &harness{dir: dir, served: make(chan struct{})}
	h.mgr, err = service.Open(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	h.base = "http://" + h.ln.Addr().String()
	h.srv = &http.Server{
		Handler:           h.faults(service.NewHandler(h.mgr, service.HandlerConfig{RequestTimeout: defaultRequestTimeout})),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(h.served)
		_ = h.srv.Serve(h.ln) // returns http.ErrServerClosed from close
	}()
	if fleet {
		if err := h.startRunners(rec); err != nil {
			h.close()
			return nil, err
		}
	}
	return h, nil
}

// faults wraps the API with the self-test's hang injection.
func (h *harness) faults(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events") && h.hangNext.CompareAndSwap(true, false) {
			<-r.Context().Done()
			return
		}
		next.ServeHTTP(w, r)
	})
}

// startRunners launches the fleet and waits for both registrations.
func (h *harness) startRunners(rec *recorder) error {
	ctx, cancel := context.WithCancel(context.Background())
	h.runnerCancel = cancel
	registered := make(chan struct{}, runnerCount)
	for i := range runnerCount {
		name := fmt.Sprintf("runner-%d", i)
		tr := http.DefaultTransport.(*http.Transport).Clone()
		h.transports = append(h.transports, tr)
		client := runnerclient.New(h.base, runnerclient.Options{
			Timeout:    10 * time.Second,
			MaxRetries: 4,
			Backoff:    200 * time.Millisecond,
			HTTPClient: &http.Client{Transport: &timedTransport{base: tr, runner: name, rec: rec, registered: registered}},
			Logf:       nopLogf,
		})
		h.runnerClients = append(h.runnerClients, client)
		rc := &service.ReplicaComputer{}
		r := &runnerclient.Runner{
			Client:      client,
			Name:        name,
			Fingerprint: buildinfo.Short(),
			Compute:     timedCompute(rec, name, rc.Compute),
			Logf:        nopLogf,
		}
		h.runnerWG.Add(1)
		go func() {
			defer h.runnerWG.Done()
			_ = r.Run(ctx) // nil on cancel; a fatal error shows as jobs that never finish
		}()
	}
	timeout := time.After(30 * time.Second)
	for range runnerCount {
		select {
		case <-registered:
		case <-timeout:
			return errors.New("fleet runners did not register within 30s")
		}
	}
	return nil
}

// timedCompute records a runner.compute span around each replica while the
// recorder is on.
func timedCompute(rec *recorder, runner string, f runnerclient.ComputeFunc) runnerclient.ComputeFunc {
	return func(ctx context.Context, g *runnerclient.LeaseGrant, slot int) ([]byte, error) {
		if !rec.on.Load() {
			return f(ctx, g, slot)
		}
		start := time.Now()
		out, err := f(ctx, g, slot)
		rec.add("runner/"+runner, 0, "runner.compute", start, time.Now(), 0)
		return out, err
	}
}

// runnerRetries sums the runners' absorbed request retries.
func (h *harness) runnerRetries() int64 {
	var n int64
	for _, c := range h.runnerClients {
		n += c.Retried()
	}
	return n
}

// close stops the runners, drains the manager, shuts the listener and
// removes the data directory; it returns once every goroutine it started
// has exited. Calls after the first do nothing.
func (h *harness) close() { h.closeOnce.Do(h.shutdown) }

func (h *harness) shutdown() {
	if h.runnerCancel != nil {
		h.runnerCancel()
		h.runnerWG.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if h.mgr != nil {
		_ = h.mgr.Stop(ctx) // a drain timeout leaves nothing the removal below needs
	}
	if h.srv != nil {
		_ = h.srv.Close() // streams already ended with the manager's drain
		<-h.served
	}
	for _, tr := range h.transports {
		tr.CloseIdleConnections()
	}
	os.RemoveAll(h.dir)
}
