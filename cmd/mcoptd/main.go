// Command mcoptd is the network optimization service: a long-running HTTP
// server that accepts Monte Carlo optimization jobs (any kind in the
// problem registry: GOLA/NOLA linear arrangement, circuit partition, TSP,
// p-median, max-cut), runs them on a bounded
// worker pool, streams engine telemetry to watchers, and persists every job
// durably — a kill -9 mid-job costs nothing but the replica in flight.
//
// Usage:
//
//	mcoptd -data DIR [-addr :7459] [-workers 2] [-max-queue 64]
//	       [-run-workers 1] [-request-timeout 30s] [-drain-timeout 30s]
//	       [-obs=true] [-lease-ttl 10s] [-runner-ttl 30s] [-lease-chunk 8]
//
// mcoptd is also the coordinator of an optional runner fleet: cmd/mcoptrunner
// processes register over the same API, lease contiguous replica windows of
// running jobs, and commit computed replicas back into the job's checkpoint
// journal. While no runner is live, mcoptd computes a job's replicas
// in-process on -run-workers workers, and a runner that registers mid-job
// takes over the replicas not yet started. Leases expire after -lease-ttl
// without a heartbeat (the range is re-leased to a live runner), runners
// are presumed dead after -runner-ttl of silence, and if the whole fleet
// dies mid-job the coordinator computes the remainder itself — result
// bytes are identical no matter which machines did the work (README
// "Running a runner fleet", DESIGN.md §14).
//
// GET /metrics serves a Prometheus text exposition (request latency
// histograms, job lifecycle metrics, engine move/acceptance counters, all
// labeled with the build version); GET /v1/jobs/{id}/trace serves a job's
// span timeline. -obs=false turns off the per-job observability (engine
// metric bridge and trace spans) — results are byte-identical either way,
// which scripts/service_smoke.sh checks.
//
// The data directory holds one subdirectory per job: the submitted spec,
// the per-replica checkpoint journal, and the committed result artifact. On
// startup mcoptd rescans it and resumes every unfinished job, so restarting
// the server (or crashing it) never loses acknowledged work. SIGINT/SIGTERM
// drain gracefully: in-flight jobs checkpoint and requeue, the listener
// closes, and the process exits.
//
// The API and the client are documented in DESIGN.md §10; cmd/mcoptctl is
// the scriptable client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mcopt/internal/buildinfo"
	"mcopt/internal/service"

	// The service resolves job specs through the problem registry; this
	// import registers every built-in kind. A fork that adds a domain
	// registers it the same way — one import here, no service edits.
	_ "mcopt/problem/builtin"
)

func main() {
	addr := flag.String("addr", ":7459", "listen address")
	data := flag.String("data", "", "data directory for durable job state; required")
	workers := flag.Int("workers", 2, "jobs run concurrently")
	maxQueue := flag.Int("max-queue", 64, "pending-job limit before submits get 429")
	runWorkers := flag.Int("run-workers", 1, "scheduler workers inside one job's replica grid")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request handling timeout (event streams exempt)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for jobs to checkpoint and stop")
	obsOn := flag.Bool("obs", true, "record per-job observability: engine metrics bridge and trace spans")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet lease lifetime between heartbeats")
	runnerTTL := flag.Duration("runner-ttl", 0, "silence before a runner is presumed dead (default 3×lease-ttl)")
	leaseChunk := flag.Int("lease-chunk", 8, "replica slots per fleet lease grant")
	archiveOn := flag.Bool("archive", true, "retire terminal jobs into the compacted run archive under DATA/archive")
	retireAge := flag.Duration("archive-retire-age", time.Hour, "how long a job stays terminal before retirement (status/result answer 404 afterwards; use the archive query)")
	retireSweep := flag.Duration("archive-sweep", 10*time.Second, "retirement sweep period")
	archiveMaxAge := flag.Duration("archive-max-age", 0, "drop archive segments whose newest record is older than this (0 = keep forever)")
	archiveMaxBytes := flag.Int64("archive-max-bytes", 0, "drop oldest archive segments while the archive exceeds this size (0 = unbounded)")
	version := buildinfo.Flag()
	flag.Parse()
	buildinfo.HandleFlag("mcoptd", version)

	logger := log.New(os.Stderr, "mcoptd: ", log.LstdFlags)
	if *data == "" {
		fmt.Fprintln(os.Stderr, "mcoptd: -data DIR is required")
		os.Exit(2)
	}

	cfg := service.Config{
		Dir:        *data,
		Workers:    *workers,
		MaxQueue:   *maxQueue,
		RunWorkers: *runWorkers,
		Logf:       logger.Printf,
		DisableObs: !*obsOn,
		LeaseTTL:   *leaseTTL,
		RunnerTTL:  *runnerTTL,
		LeaseChunk: *leaseChunk,
	}
	if *archiveOn {
		cfg.ArchiveDir = filepath.Join(*data, "archive")
		cfg.RetireAge = *retireAge
		cfg.RetireInterval = *retireSweep
		cfg.ArchiveMaxAge = *archiveMaxAge
		cfg.ArchiveMaxBytes = *archiveMaxBytes
	}
	m, err := service.Open(cfg)
	if err != nil {
		logger.Fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(m, service.HandlerConfig{RequestTimeout: *requestTimeout}),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s (data %s, %d worker(s), queue %d)",
		ln.Addr(), *data, *workers, *maxQueue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the manager first so in-flight jobs checkpoint and event streams
	// end; then the listener can shut down without waiting on live streams.
	if err := m.Stop(drainCtx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	srv.Close()
	logger.Printf("stopped")
}
