package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"fpga3d"
	"fpga3d/internal/obs"
	"fpga3d/internal/strategy"
	"fpga3d/internal/wire"
)

// maxRequestBytes bounds a request body; a placement instance is a few
// KB, so 8 MiB leaves room for very large generated workloads while
// keeping a misbehaving client from ballooning the heap.
const maxRequestBytes = 8 << 20

// solveMode describes one /v1/* endpoint: how to validate its
// parameters, the cache key it owns, how to invoke the solver, and
// which chip a cached witness placement must be re-verified against.
// invoke also reports the per-stage wall-clock split of the solve so
// serveSolve can feed the server.stage.* histograms.
type solveMode struct {
	name     string // metric suffix and cache-key prefix
	validate func(*solveRequest) error
	key      func(*solveRequest, string, string) string
	invoke   func(context.Context, *fpga3d.Instance, *solveRequest, *fpga3d.Options) (*solveResponse, fpga3d.StageTimings, error)
	// verifyChip returns the container a cached placement for this
	// request must verify against, or ok=false when the cached entry
	// carries no usable value.
	verifyChip func(*solveRequest, *solveResponse) (fpga3d.Chip, bool)
}

// modeSolve answers the paper's OPP decision (FeasAT&FindS).
var modeSolve = &solveMode{
	name: "solve",
	validate: func(req *solveRequest) error {
		if req.Chip == nil {
			return errors.New(`solve needs "chip": {"w":…,"h":…,"t":…}`)
		}
		if req.Chip.W < 1 || req.Chip.H < 1 || req.Chip.T < 1 {
			return fmt.Errorf("chip %v has non-positive dimensions", *req.Chip)
		}
		return nil
	},
	key: func(req *solveRequest, hash, strat string) string {
		return cacheKey("solve", hash, strat, req.Chip.W, req.Chip.H, req.Chip.T)
	},
	invoke: func(ctx context.Context, in *fpga3d.Instance, req *solveRequest, o *fpga3d.Options) (*solveResponse, fpga3d.StageTimings, error) {
		r, err := fpga3d.SolveCtx(ctx, in, *req.Chip, o)
		if err != nil {
			return nil, fpga3d.StageTimings{}, err
		}
		resp := &solveResponse{
			Decision:  r.Decision.String(),
			DecidedBy: r.DecidedBy,
			Nodes:     r.Nodes,
			ElapsedMS: r.Elapsed.Milliseconds(),
			Placement: r.Placement,
		}
		resp.fillMakespan(in)
		return resp, r.Stages, nil
	},
	verifyChip: func(req *solveRequest, _ *solveResponse) (fpga3d.Chip, bool) {
		return *req.Chip, true
	},
}

// modeMinTime answers the paper's SPP optimization (MinT&FindS).
var modeMinTime = &solveMode{
	name: "minimize_time",
	validate: func(req *solveRequest) error {
		if req.W < 1 || req.H < 1 {
			return errors.New(`minimize-time needs positive "w" and "h" chip dimensions`)
		}
		return nil
	},
	key: func(req *solveRequest, hash, strat string) string {
		return cacheKey("minimize_time", hash, strat, req.W, req.H, 0)
	},
	invoke: func(ctx context.Context, in *fpga3d.Instance, req *solveRequest, o *fpga3d.Options) (*solveResponse, fpga3d.StageTimings, error) {
		o.Anytime = req.Anytime
		r, err := fpga3d.MinimizeTimeCtx(ctx, in, req.W, req.H, o)
		resp := optimizeResponse(in, r)
		if req.Anytime && resp != nil && r != nil {
			bb, gap := r.BestBound, r.Gap
			resp.BestBound = &bb
			resp.Gap = &gap
		}
		return resp, optimizeStages(r), err
	},
	verifyChip: func(req *solveRequest, resp *solveResponse) (fpga3d.Chip, bool) {
		if resp.Value == nil {
			return fpga3d.Chip{}, false
		}
		return fpga3d.Chip{W: req.W, H: req.H, T: *resp.Value}, true
	},
}

// modeMinChip answers the paper's BMP optimization (MinA&FindS).
var modeMinChip = &solveMode{
	name: "minimize_chip",
	validate: func(req *solveRequest) error {
		if req.T < 1 {
			return errors.New(`minimize-chip needs a positive "t" time budget`)
		}
		return nil
	},
	key: func(req *solveRequest, hash, strat string) string {
		return cacheKey("minimize_chip", hash, strat, req.T, 0, 0)
	},
	invoke: func(ctx context.Context, in *fpga3d.Instance, req *solveRequest, o *fpga3d.Options) (*solveResponse, fpga3d.StageTimings, error) {
		r, err := fpga3d.MinimizeChipCtx(ctx, in, req.T, o)
		return optimizeResponse(in, r), optimizeStages(r), err
	},
	verifyChip: func(req *solveRequest, resp *solveResponse) (fpga3d.Chip, bool) {
		if resp.Value == nil {
			return fpga3d.Chip{}, false
		}
		return fpga3d.Chip{W: *resp.Value, H: *resp.Value, T: req.T}, true
	},
}

// optimizeStages extracts the stage split from an OptimizeResult,
// tolerating the nil result of a canceled run.
func optimizeStages(r *fpga3d.OptimizeResult) fpga3d.StageTimings {
	if r == nil {
		return fpga3d.StageTimings{}
	}
	return r.Stages
}

// optimizeResponse converts an OptimizeResult (possibly the partial
// result of a canceled run, possibly nil) into the wire shape.
func optimizeResponse(in *fpga3d.Instance, r *fpga3d.OptimizeResult) *solveResponse {
	if r == nil {
		return nil
	}
	value, lb := r.Value, r.LowerBound
	resp := &solveResponse{
		Decision:   r.Decision.String(),
		Value:      &value,
		LowerBound: &lb,
		Nodes:      r.Nodes,
		ElapsedMS:  r.Elapsed.Milliseconds(),
		Placement:  r.Placement,
	}
	resp.fillMakespan(in)
	return resp
}

// fillMakespan annotates a witness placement with its makespan.
func (resp *solveResponse) fillMakespan(in *fpga3d.Instance) {
	if resp.Placement == nil || len(resp.Placement.S) != in.NumTasks() {
		return
	}
	m := resp.Placement.Makespan(in.Model())
	resp.Makespan = &m
}

// readBody reads a request body of at most limit bytes. When it fails
// it has answered the request — 413 naming the cap for a body over it,
// 400 otherwise — and returns ok=false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	// The declared length presizes the buffer only up to 64 KiB: a
	// client must send the bytes, not just announce them, to make the
	// daemon hold more.
	hint := int(min(max(r.ContentLength, 0), 64<<10))
	body, err := wire.ReadAll(http.MaxBytesReader(w, r.Body, limit), hint)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %s limit", byteSize(limit)))
		return nil, false
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return nil, false
	}
	return body, true
}

// byteSize formats a body cap, a whole number of KiB, for an error.
func byteSize(n int64) string {
	if n%(1<<20) == 0 {
		return fmt.Sprintf("%d MiB", n>>20)
	}
	return fmt.Sprintf("%d KiB", n>>10)
}

// decodeSolve decodes and prepares the body of a synchronous solve
// request. Any error is a client error (400).
func (s *Server) decodeSolve(body []byte, m *solveMode) (*solveTask, error) {
	var req solveRequest
	if err := req.decode(wire.NewDecoder(body)); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return s.prepareSolve(&req, m)
}

// prepareSolve turns a decoded solveRequest into an executable task:
// it validates the decoded instance, checks the mode's own parameters,
// resolves the effective strategy (request field, else the daemon
// default) and hashes the instance for the cache key. Any error is a
// client error (400).
func (s *Server) prepareSolve(req *solveRequest, m *solveMode) (*solveTask, error) {
	if req.Instance == nil {
		return nil, errors.New(`request needs an "instance"`)
	}
	if err := req.Instance.Validate(); err != nil {
		return nil, err
	}
	if err := m.validate(req); err != nil {
		return nil, err
	}
	if req.Anytime && m != modeMinTime {
		return nil, fmt.Errorf(`"anytime" applies to minimize-time only, not %s`, m.name)
	}
	strat := req.Strategy
	if strat == "" {
		strat = s.cfg.Strategy
	}
	if !strategy.Valid(strat) {
		return nil, fmt.Errorf("unknown strategy %q (valid: %s)", strat, strings.Join(strategy.Names(), ", "))
	}
	if strat == "" {
		strat = strategy.NameStaged
	}
	return &solveTask{
		mode:  m,
		req:   req,
		in:    fpga3d.WrapInstance(req.Instance),
		strat: strat,
		hash:  req.Instance.CanonicalHash(),
	}, nil
}

// solveTask is one prepared solve headed into runSolve — the shared
// execution core behind the synchronous endpoints, every batch entry,
// and every async job.
type solveTask struct {
	mode  *solveMode
	req   *solveRequest
	in    *fpga3d.Instance
	strat string
	hash  string // in's CanonicalHash, the instance part of the cache key
	// progress, when non-nil, receives the solve's progress snapshots
	// (wired to a broker stream by the caller, who owns closing it).
	progress obs.ProgressFunc
	// info, when non-nil, is annotated with the cache outcome for the
	// access log (synchronous requests only).
	info *requestInfo
	// onRunning, when non-nil, fires once when the task acquires its
	// solve slot — after any queue wait, before the solver is invoked.
	// A cache hit answers without a slot, so it may never fire.
	onRunning func()
	// onImprove, when non-nil, receives every anytime improvement of
	// the solve (anytime minimize-time requests only). Async jobs wire
	// it to the job store so 202 snapshots carry live incumbent state.
	onImprove func(fpga3d.AnytimeUpdate)
}

// runSolve executes one prepared solve through the shared lifecycle:
// cache lookup → admission → deadline → solve → cache fill. It is the
// single path every solve takes — synchronous, batch entry, or async
// job — so admission control, caching, metrics and strategy selection
// behave identically no matter how the work arrived.
//
// The error reports how the task ended:
//
//	nil                      definitive answer (resp non-nil, cached or solved)
//	ErrQueueFull             rejected, admission queue at capacity (resp nil)
//	context.DeadlineExceeded deadline expired; resp carries the partial
//	                         result when the solve started, nil when the
//	                         deadline fell while queued
//	context.Canceled         canceled; resp may carry a partial result
//	other                    solver/input failure (a 422 for sync callers)
func (s *Server) runSolve(ctx context.Context, t *solveTask) (*solveResponse, error) {
	s.reg.Counter(obs.MetricStrategyRequests + "." + t.strat).Inc()
	key := t.mode.key(t.req, t.hash, t.strat)
	if !t.req.NoCache {
		lookup := time.Now()
		entry, ok := s.cache.Get(key)
		s.reg.Histogram(obs.MetricCacheLookup).ObserveSince(lookup)
		if ok && s.servable(t.in, t.req, t.mode, entry) {
			s.reg.Counter(obs.MetricCacheHits).Inc()
			if t.info != nil {
				t.info.cache = "hit"
			}
			out := *entry.value
			out.Cached = true
			// The cache holds only completed answers, so an anytime
			// request served from it is trivially proven optimal:
			// synthesize the gap-0 pair the solver would have reported.
			if t.req.Anytime && out.Value != nil {
				bb, gap := *out.Value, 0.0
				out.BestBound = &bb
				out.Gap = &gap
			}
			return &out, nil
		}
		s.reg.Counter(obs.MetricCacheMisses).Inc()
		if t.info != nil {
			t.info.cache = "miss"
		}
	} else if t.info != nil {
		t.info.cache = "bypass"
	}

	enqueued := time.Now()
	release, err := s.pool.Acquire(ctx)
	s.reg.Histogram(obs.MetricQueueWait).ObserveSince(enqueued)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.reg.Counter(obs.MetricRejectedQueueFull).Inc()
		case errors.Is(err, context.DeadlineExceeded):
			s.reg.Counter(obs.MetricDeadlineExpired).Inc()
		}
		return nil, err
	}
	defer release()
	if t.onRunning != nil {
		t.onRunning()
	}

	o := &fpga3d.Options{
		Workers:       s.cfg.Workers,
		Metrics:       s.reg,
		Strategy:      t.strat,
		Progress:      t.progress,
		Trace:         s.tracer,
		OnImprovement: t.onImprove,
	}
	resp, stages, err := t.mode.invoke(ctx, t.in, t.req, o)
	s.observeStages(stages)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		s.reg.Counter(obs.MetricSolveErrors).Inc()
		return nil, err
	}
	if resp == nil {
		resp = &solveResponse{Decision: fpga3d.Unknown.String(), DecidedBy: "canceled"}
	}
	resp.Strategy = t.strat
	if resp.Decision == fpga3d.Unknown.String() {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The deadline cut the solve short: the partial result
			// travels with the error. Never cached.
			s.reg.Counter(obs.MetricDeadlineExpired).Inc()
			resp.Error = "deadline expired; partial result"
			return resp, context.DeadlineExceeded
		}
		if ctx.Err() != nil {
			return resp, context.Canceled
		}
	}
	if !t.req.NoCache && resp.Decision != fpga3d.Unknown.String() {
		stored := *resp
		stored.Cached = false
		stored.RequestID = "" // per-request identity; never cached
		// Gap state is per-request refinement history; the cache stores
		// the canonical completed answer and hits re-synthesize gap 0.
		stored.BestBound = nil
		stored.Gap = nil
		s.cache.Put(key, &stored, t.in.Model())
	}
	return resp, nil
}

// serveSolve is the request lifecycle of the three synchronous solve
// endpoints: decode → validate → runSolve (cache/admission/solve) →
// respond. See ARCHITECTURE.md, "Serving".
func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request, m *solveMode) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.reg.Counter(obs.MetricRequests + "." + m.name).Inc()

	body, ok := s.readBody(w, r, maxRequestBytes)
	if !ok {
		return
	}
	task, err := s.decodeSolve(body, m)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	reqID := obs.RequestIDFromContext(r.Context())
	info := infoFromContext(r.Context())
	if info != nil {
		info.strategy = task.strat
	}

	timeout := s.cfg.DefaultTimeout
	if task.req.TimeoutMS > 0 {
		timeout = time.Duration(task.req.TimeoutMS) * time.Millisecond
	}

	// The live-progress stream opens before cache and admission so a
	// subscriber holding the request ID can attach while this request
	// is still queued; even a cache hit then yields a terminal event.
	var progress obs.ProgressFunc
	if s.broker != nil && reqID != "" {
		pub, closeStream := s.broker.Open(reqID)
		progress = pub
		defer closeStream()
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	task.progress, task.info = progress, info
	resp, err := s.runSolve(ctx, task)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter(timeout))
		s.writeError(w, http.StatusTooManyRequests, "server at capacity: admission queue full")
		return
	case errors.Is(err, context.DeadlineExceeded):
		if resp == nil {
			resp = &solveResponse{
				Decision: fpga3d.Unknown.String(),
				Error:    "deadline expired while queued for a solve slot",
			}
		}
		resp.RequestID = reqID
		s.writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	case errors.Is(err, context.Canceled):
		return // client canceled; the connection is gone
	case err != nil:
		s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	resp.RequestID = reqID
	s.writeJSON(w, http.StatusOK, resp)
}

// observeStages feeds the per-stage solve-duration histograms; stages
// the solve never entered (zero duration) are not recorded.
func (s *Server) observeStages(st fpga3d.StageTimings) {
	if st.Bounds > 0 {
		s.reg.Histogram(obs.MetricStageLatency + "." + obs.PhaseBounds).Observe(st.Bounds.Seconds())
	}
	if st.Heuristic > 0 {
		s.reg.Histogram(obs.MetricStageLatency + "." + obs.PhaseHeuristic).Observe(st.Heuristic.Seconds())
	}
	if st.Anneal > 0 {
		s.reg.Histogram(obs.MetricStageLatency + "." + obs.PhaseAnneal).Observe(st.Anneal.Seconds())
	}
	if st.Search > 0 {
		s.reg.Histogram(obs.MetricStageLatency + "." + obs.PhaseSearch).Observe(st.Search.Seconds())
	}
}

// servable decides whether a cached entry may answer this request. A
// value-only entry (infeasible, or an optimum with no witness) is
// servable only to an instance identical to the one that filled it:
// colour refinement gives some non-isomorphic instances equal
// canonical hashes (two transitive triangles and a six-cycle of equal
// tasks), and such an answer has no witness to re-check. An entry with
// a witness placement is only servable if that placement verifies
// against the requesting instance's own task numbering: the hash is
// invariant under task reordering, but placement coordinates are
// positional, so a renumbered resubmission of the same module set must
// re-solve rather than inherit coordinates by index.
func (s *Server) servable(in *fpga3d.Instance, req *solveRequest, m *solveMode, e cacheEntry) bool {
	cached := e.value
	if cached.Placement == nil {
		mi := in.Model()
		return slices.Equal(e.tasks, mi.Tasks) && slices.Equal(e.prec, mi.Prec)
	}
	if len(cached.Placement.X) != in.NumTasks() {
		return false
	}
	chip, ok := m.verifyChip(req, cached)
	if !ok {
		return false
	}
	return in.VerifyPlacement(cached.Placement, chip) == nil
}

// handleHealthz reports liveness and occupancy; during a drain it
// flips to 503 so load balancers stop routing new work here. The body
// is a point-in-time reading, so caches must not hold it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	h := healthResponse{
		Status:       "ok",
		Inflight:     s.pool.Inflight(),
		Queued:       s.pool.Queued(),
		CacheEntries: s.cache.Len(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// retryAfter suggests when a rejected client should try again: the
// request's own deadline is the natural horizon for a slot to free up.
func retryAfter(timeout time.Duration) string {
	secs := int(timeout.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeJSON writes v as the response body with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("writing response: %v", err)
	}
}

// writeError writes a JSON error body with the given status.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, errorResponse{Error: msg})
}
