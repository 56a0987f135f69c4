// Command fpgad is the FPGA placement daemon: a long-lived HTTP
// service answering placement questions with the exact packing-class
// solver, built for online reconfigurable-device management where
// placement requests arrive continuously and must be answered under
// deadlines.
//
// Usage:
//
//	fpgad -addr :8080 -max-concurrent 4 -queue-depth 64 \
//	      -default-timeout 30s -cache-size 256 -log-format json
//
// API (JSON over HTTP; full reference in API.md, operator runbook in
// OPERATIONS.md):
//
//	POST /v1/solve          {"instance": …, "chip": {"w":64,"h":64,"t":80}}
//	POST /v1/minimize-time  {"instance": …, "w": 64, "h": 64}
//	POST /v1/minimize-chip  {"instance": …, "t": 59}
//	POST /v1/solve-batch    {"requests": [{"mode":"solve", …}, …]} — up to
//	                        -max-batch instances in one round trip,
//	                        results keyed by canonical hash,
//	                        per-entry partial-failure semantics
//	POST /v1/jobs           async solve → 202 + job id; progress over
//	                        SSE at /v1/progress/{job_id}
//	GET  /v1/jobs[/{id}]    job list / snapshot (result once done)
//	DELETE /v1/jobs/{id}    cancel an active job; remove a finished one
//	GET  /v1/progress/{id}  live solve progress as Server-Sent Events
//	GET  /healthz           liveness + occupancy (503 while draining)
//	GET  /metrics           serving + solver counters as JSON, or
//	                        Prometheus exposition with ?format=prom
//	                        (or Accept: text/plain)
//
// Async jobs are bounded three ways: -max-jobs caps the job table
// (429 when full of active jobs), -jobs-per-client caps one
// submitter's active jobs (429 for that client), and -job-ttl evicts
// finished jobs that were never collected.
//
// Anytime jobs: a minimize-time request (synchronous or async) may set
// "anytime": true. The solve then keeps a best-known schedule at all
// times — greedy incumbent, randomized annealing improvements, exact
// refinement to proven optimality — and every job snapshot and SSE
// progress frame carries best_makespan, lower_bound and gap (their
// relative optimality gap, non-increasing over the run, 0 exactly when
// the incumbent is proven optimal). A deadline-expired anytime solve
// answers with the best-known schedule and its gap instead of nothing;
// the fully refined answer always equals the plain solve's. "anytime"
// on any other question is a 400.
//
// Online placement sessions (long-lived device state; see
// ARCHITECTURE.md, "Online placement"):
//
//	POST   /v1/sessions               {"w":16,"h":16} → 201 + session id
//	GET    /v1/sessions/{id}          layout snapshot + counters
//	DELETE /v1/sessions/{id}          drop the session
//	POST   /v1/sessions/{id}/admit    {"name":"m0","w":4,"h":3,"dur":20,
//	                                   "at":0,"deadline":0}
//	POST   /v1/sessions/{id}/depart   {"id":3,"at":9}
//	POST   /v1/sessions/{id}/defrag   {"at":12} → validated move plan
//	GET    /v1/sessions/{id}/events   session events as SSE
//
// Sessions idle longer than -session-ttl are evicted lazily; at most
// -max-sessions are resident at once (429 beyond).
//
// Every solve endpoint accepts "timeout_ms" (overriding
// -default-timeout; expiry answers 504 with the partial result) and
// "no_cache". At most -max-concurrent solves run at once; up to
// -queue-depth more wait in line, and anything beyond that is
// rejected with 429 and a Retry-After header. Identical questions
// about canonically identical instances are answered from an LRU
// result cache (flagged "cached": true in the response).
//
// Every response carries an X-Request-Id header (echoing the client's
// own, if it sent a well-formed one). Subscribing to
// GET /v1/progress/{id} with that ID while the solve is in flight
// streams its search progress live. One structured log line is
// emitted per request — text by default, JSON with -log-format json —
// carrying the request ID, endpoint, strategy, cache outcome, status
// and latency. -trace appends solver trace and span events as JSON
// lines to a file, connected to the log by the same request IDs.
//
// On SIGTERM or SIGINT the daemon stops accepting connections, lets
// in-flight solves finish (bounded by -drain-timeout), then exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fpga3d/internal/obs"
	"fpga3d/internal/server"
	"fpga3d/internal/strategy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpgad: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// newLogger builds the daemon's structured logger; format is "text"
// or "json".
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
}

// run starts the daemon and blocks until a fatal serve error or until
// ctx is done (main wires ctx to SIGTERM/SIGINT), at which point it
// drains in-flight solves and returns. ready, when non-nil, receives
// the bound address once the listener is up (tests use -addr :0).
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("fpgad", flag.ContinueOnError)
	var (
		addr            = fs.String("addr", ":8080", "listen address")
		maxConcurrent   = fs.Int("max-concurrent", runtime.GOMAXPROCS(0), "solves running at once")
		queueDepth      = fs.Int("queue-depth", 64, "admitted requests waiting for a slot; beyond this requests get 429")
		defaultTimeout  = fs.Duration("default-timeout", 30*time.Second, "per-request solve deadline unless the request sets timeout_ms")
		cacheSize       = fs.Int("cache-size", 256, "canonical-instance result cache entries (negative disables)")
		workers         = fs.Int("workers", 1, "per-solve parallelism, opt-in: >1 races sweep probes (bit-identical) and steals subtrees in single decisions (answer-equal); 0 and 1 are sequential; keep 1 when -max-concurrent already saturates the cores")
		strategyName    = fs.String("strategy", "", "default solve strategy: staged | portfolio | anneal (requests may override per call)")
		drainTimeout    = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight solves")
		logFormat       = fs.String("log-format", "text", "structured log output: text | json")
		traceFile       = fs.String("trace", "", "append solver trace and span events (JSON lines) to this file")
		progressStreams = fs.Int("progress-streams", 64, "live progress streams tracked for GET /v1/progress/{id} (negative disables)")
		enablePprof     = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (exposes internals; keep off untrusted networks)")
		sessionTTL      = fs.Duration("session-ttl", 15*time.Minute, "evict online placement sessions idle longer than this")
		maxSessions     = fs.Int("max-sessions", 64, "online placement sessions resident at once; beyond this POST /v1/sessions gets 429")
		maxBatch        = fs.Int("max-batch", 64, "instances accepted per /v1/solve-batch request")
		maxJobs         = fs.Int("max-jobs", 256, "async jobs resident at once; a table full of active jobs answers POST /v1/jobs with 429")
		jobsPerClient   = fs.Int("jobs-per-client", 16, "active async jobs per client identity; beyond this POST /v1/jobs gets 429")
		jobTTL          = fs.Duration("job-ttl", 10*time.Minute, "retain finished async jobs this long for collection before lazy eviction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if !strategy.Valid(*strategyName) {
		return fmt.Errorf("unknown -strategy %q (valid: %s)", *strategyName, strings.Join(strategy.Names(), ", "))
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -trace file: %w", err)
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
	}

	s := server.New(server.Config{
		MaxConcurrent:   *maxConcurrent,
		QueueDepth:      *queueDepth,
		DefaultTimeout:  *defaultTimeout,
		CacheSize:       *cacheSize,
		Workers:         *workers,
		Strategy:        *strategyName,
		Logger:          logger,
		Tracer:          tracer,
		ProgressStreams: *progressStreams,
		EnablePprof:     *enablePprof,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		MaxBatch:        *maxBatch,
		MaxJobs:         *maxJobs,
		JobsPerClient:   *jobsPerClient,
		JobTTL:          *jobTTL,
	})

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- s.ListenAndServe(*addr, func(bound string) {
			// The bound address stays inside the message (not an attr):
			// operators and the CI smoke scrape it as "listening on X".
			logger.Info("listening on "+bound,
				"max_concurrent", *maxConcurrent,
				"queue_depth", *queueDepth,
				"default_timeout", defaultTimeout.String(),
				"cache_size", *cacheSize,
				"log_format", *logFormat)
			if ready != nil {
				ready(bound)
			}
		})
	}()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		logger.Info("shutdown requested; draining", "drain_timeout", drainTimeout.String())
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(dctx); err != nil {
			return fmt.Errorf("draining: %w", err)
		}
		if err := <-serveErr; err != nil {
			return err
		}
		logger.Info("drained; bye")
		return nil
	}
}
