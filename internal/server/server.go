// Package server is the fpgad serving subsystem: an HTTP JSON API over
// the root fpga3d solver with bounded-concurrency admission control, a
// canonical-instance result cache, per-request deadlines, and graceful
// drain — the long-lived counterpart of the one-shot fpgaplace CLI for
// online reconfigurable-device management.
//
// Request lifecycle (see ARCHITECTURE.md, "Serving"):
//
//	decode → validate → cache lookup → admission (429 beyond the
//	queue) → deadline (504 with the partial result) → SolveCtx /
//	MinimizeTimeCtx / MinimizeChipCtx → cache fill → response
//
// All serving counters and gauges live in the same obs.Registry as the
// solver's own metrics and are exported verbatim on GET /metrics.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"fpga3d/internal/obs"
	"fpga3d/internal/server/jobs"
)

// Config tunes the daemon; the zero value is usable (one solve at a
// time, no queue, 30s default deadline, 256-entry cache).
type Config struct {
	// MaxConcurrent bounds simultaneously running solves (<1 means 1).
	MaxConcurrent int
	// QueueDepth bounds admitted requests waiting for a slot; beyond
	// it requests are rejected with 429 (+Retry-After).
	QueueDepth int
	// DefaultTimeout is the per-request solve deadline when the
	// request does not set timeout_ms (<=0 means 30s).
	DefaultTimeout time.Duration
	// CacheSize is the canonical-instance result cache capacity in
	// entries (0 means 256; negative disables caching).
	CacheSize int
	// Workers is forwarded to Options.Workers for every solve.
	// Parallelism is opt-in: >1 races sweeps and steals in single
	// decisions; 0 and 1 are sequential.
	Workers int
	// Strategy is the default solve strategy ("staged" or "portfolio",
	// "" = staged) applied when a request does not carry its own
	// "strategy" field. An unknown name is rejected per request with a
	// 400, so callers should validate it up front (fpgad does).
	Strategy string
	// Registry receives serving and solver metrics; nil means a fresh
	// private registry.
	Registry *obs.Registry
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives one structured access-log record
	// per request (request ID, endpoint, strategy, cache outcome,
	// status, latency) plus the notable-event lines that would
	// otherwise go to Logf.
	Logger *slog.Logger
	// Tracer, when non-nil, receives request/driver/stage span events
	// for every request, connected by the request ID.
	Tracer *obs.Tracer
	// ProgressStreams bounds concurrently tracked live-progress streams
	// for GET /v1/progress/{id} (0 means 64; negative disables the
	// endpoint's backing broker).
	ProgressStreams int
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/ for live profiling of a running daemon. Off by
	// default: the profile endpoints expose goroutine stacks and heap
	// contents, so they are opt-in (fpgad -pprof) and should stay
	// unreachable from untrusted networks.
	EnablePprof bool
	// SessionTTL evicts online placement sessions idle longer than
	// this (0 means 15m). Eviction is lazy: it runs on the next
	// session-API call, not on a timer.
	SessionTTL time.Duration
	// MaxSessions caps concurrently resident online placement sessions
	// (0 means 64); beyond it POST /v1/sessions answers 429.
	MaxSessions int
	// MaxBatch bounds instances per POST /v1/solve-batch request
	// (0 means 64).
	MaxBatch int
	// MaxJobs bounds jobs resident in the async job table (0 means
	// 256). When the table is full of active jobs, POST /v1/jobs
	// answers 429.
	MaxJobs int
	// JobsPerClient bounds active (queued or running) jobs per client
	// identity (0 means 16); beyond it POST /v1/jobs answers 429 for
	// that client.
	JobsPerClient int
	// JobTTL retains terminal jobs for this long before lazy eviction
	// (0 means 10m). Eviction runs on the next job-API call, not on a
	// timer.
	JobTTL time.Duration
}

// Server wires the admission pool, the result cache and the HTTP
// handlers together. Create it with New; it is ready to serve via
// Handler, Serve or ListenAndServe, and drains with Shutdown.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	pool     *Pool
	cache    *Cache
	broker   *obs.ProgressBroker
	sessions *sessionManager
	jobs     *jobs.Store
	jobsWG   sync.WaitGroup
	log      *slog.Logger
	tracer   *obs.Tracer
	handler  http.Handler
	httpSrv  *http.Server
	draining atomic.Bool
	// solveOwn is the solve of the goroutines the server starts itself
	// (async jobs, batch leaders): runSolve, replaced only in tests.
	solveOwn func(context.Context, *solveTask) (*solveResponse, error)
}

// New builds a Server from cfg, normalizing zero values.
func New(cfg Config) *Server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = 256
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0 // NewCache treats <1 as disabled
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		pool:   NewPool(cfg.MaxConcurrent, cfg.QueueDepth, reg),
		cache:  NewCache(cfg.CacheSize, reg),
		log:    cfg.Logger,
		tracer: cfg.Tracer,
	}
	s.solveOwn = s.runSolve
	if cfg.ProgressStreams >= 0 {
		s.broker = obs.NewProgressBroker(cfg.ProgressStreams)
	}
	s.sessions = newSessionManager(cfg.SessionTTL, cfg.MaxSessions)
	s.jobs = jobs.NewStore(cfg.MaxJobs, cfg.JobsPerClient, cfg.JobTTL)
	s.jobs.SetObserver(jobStateGauges(reg))

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) { s.serveSolve(w, r, modeSolve) })
	mux.HandleFunc("/v1/minimize-time", func(w http.ResponseWriter, r *http.Request) { s.serveSolve(w, r, modeMinTime) })
	mux.HandleFunc("/v1/minimize-chip", func(w http.ResponseWriter, r *http.Request) { s.serveSolve(w, r, modeMinChip) })
	mux.HandleFunc("/v1/solve-batch", s.handleSolveBatch)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobOp)
	mux.HandleFunc("/v1/progress/", s.handleProgress)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSessionOp)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", reg)
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.instrument(s.recoverPanics(mux))

	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the daemon's HTTP API, for mounting under a custom
// http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the metrics registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Serve accepts connections on l until Shutdown; a Shutdown-initiated
// stop returns nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown. ready,
// when non-nil, is called once with the bound address (useful with
// ":0" ports).
func (s *Server) ListenAndServe(addr string, ready func(addr string)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(l.Addr().String())
	}
	return s.Serve(l)
}

// Shutdown drains the daemon: new connections are refused, /healthz
// flips to 503, in-flight solves run to completion, and async job
// executors finish their current jobs (each within ctx's remaining
// budget — an expired ctx closes connections and abandons job
// goroutines to the process exit).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.logf("draining: %d in flight, %d queued", s.pool.Inflight(), s.pool.Queued())
	err := s.httpSrv.Shutdown(ctx)
	jobsDone := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(jobsDone)
	}()
	select {
	case <-jobsDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// logf forwards notable-event lines to Config.Logf when set, else to
// the structured Logger.
func (s *Server) logf(format string, args ...any) {
	switch {
	case s.cfg.Logf != nil:
		s.cfg.Logf(format, args...)
	case s.log != nil:
		s.log.Info(fmt.Sprintf(format, args...))
	}
}
