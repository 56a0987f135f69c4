package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"fpga3d"
	"fpga3d/internal/obs"
	"fpga3d/internal/server/jobs"
	"fpga3d/internal/wire"
)

// jobRequest is the JSON body of POST /v1/jobs: one solve submitted
// for asynchronous execution. Mode picks the question ("solve" by
// default, "minimize-time" or "minimize-chip"); Client names the
// submitter for the per-client active-job cap (defaulting to the
// connection's remote address). The embedded solveRequest fields mean
// exactly what they mean on the synchronous endpoints — timeout_ms
// bounds the solve once it starts running, no_cache bypasses the
// result cache, strategy picks the pipeline.
type jobRequest struct {
	Mode   string `json:"mode,omitempty"`
	Client string `json:"client,omitempty"`
	solveRequest
}

// decode decodes a jobRequest body at d's cursor, as
// solveRequest.decode does.
func (req *jobRequest) decode(d *wire.Decoder) error {
	return d.Object(func(key []byte) error {
		switch wire.Field(key, "mode", "client") {
		case 0:
			return d.String(&req.Mode)
		case 1:
			return d.String(&req.Client)
		}
		if ok, err := req.decodeField(d, key); ok {
			return err
		}
		return wire.UnknownField(key)
	})
}

// jobMeta is what the serving layer pins to a job at submission time.
type jobMeta struct {
	mode  string
	hash  string
	strat string
}

// anytimeProgress is the live incumbent state an anytime job records
// in the store on every improvement, surfaced on job snapshots.
type anytimeProgress struct {
	best, lower int
	gap         float64
}

// jobWire is the JSON shape of one job on GET /v1/jobs[/{id}] and in
// the 202 submission answer. Result appears once the job is done (or
// carries the partial result of a failed, deadline-expired solve);
// ProgressURL names the job's live SSE stream while it runs.
// BestMakespan, LowerBound and Gap carry the live incumbent state of
// an anytime minimize-time job: the best-known makespan, the proven
// lower bound, and their relative gap (non-increasing over the job's
// life, 0 once the incumbent is proven optimal).
type jobWire struct {
	ID            string         `json:"id"`
	State         string         `json:"state"`
	Mode          string         `json:"mode"`
	Strategy      string         `json:"strategy,omitempty"`
	Client        string         `json:"client,omitempty"`
	CanonicalHash string         `json:"canonical_hash"`
	CreatedUnixMS int64          `json:"created_unix_ms"`
	QueueWaitMS   *int64         `json:"queue_wait_ms,omitempty"`
	RunMS         *int64         `json:"run_ms,omitempty"`
	BestMakespan  *int           `json:"best_makespan,omitempty"`
	LowerBound    *int           `json:"lower_bound,omitempty"`
	Gap           *float64       `json:"gap,omitempty"`
	Result        *solveResponse `json:"result,omitempty"`
	Error         string         `json:"error,omitempty"`
	ProgressURL   string         `json:"progress_url,omitempty"`
}

// jobListResponse is the body of GET /v1/jobs.
type jobListResponse struct {
	Jobs []jobWire `json:"jobs"`
}

// wireJob converts a store snapshot to the API shape.
func (s *Server) wireJob(j jobs.Job) jobWire {
	w := jobWire{
		ID:            j.ID,
		State:         string(j.State),
		Client:        j.Client,
		CreatedUnixMS: j.Created.UnixMilli(),
		Error:         j.Err,
	}
	if m, ok := j.Meta.(jobMeta); ok {
		w.Mode = m.mode
		w.CanonicalHash = m.hash
		w.Strategy = m.strat
	}
	if resp, ok := j.Result.(*solveResponse); ok {
		w.Result = resp
	}
	if p, ok := j.Progress.(anytimeProgress); ok {
		best, lower, gap := p.best, p.lower, p.gap
		w.BestMakespan = &best
		w.LowerBound = &lower
		w.Gap = &gap
	}
	if !j.Started.IsZero() {
		wait := j.Started.Sub(j.Created).Milliseconds()
		w.QueueWaitMS = &wait
		end := j.Finished
		if end.IsZero() {
			end = time.Now()
		}
		run := end.Sub(j.Started).Milliseconds()
		w.RunMS = &run
	}
	if s.broker != nil && !j.State.Terminal() {
		w.ProgressURL = "/v1/progress/" + j.ID
	}
	return w
}

// clientIdentity resolves the identity the per-client job cap is keyed
// on: the request's own "client" field when set, else the remote host.
func clientIdentity(r *http.Request, requested string) string {
	if requested != "" {
		return requested
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// handleJobs serves the job collection: POST /v1/jobs submits an
// asynchronous solve (202 Accepted with the job snapshot; Location
// names the job URL), GET /v1/jobs lists resident jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter(obs.MetricRequests + ".jobs").Inc()
	switch r.Method {
	case http.MethodGet:
		l := s.jobs.List()
		out := jobListResponse{Jobs: make([]jobWire, 0, len(l))}
		for _, j := range l {
			out.Jobs = append(out.Jobs, s.wireJob(j))
		}
		s.writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "use POST or GET")
	}
}

// handleJobSubmit accepts one async solve: validate now (submission
// errors are synchronous 400s), then queue the job and answer 202
// immediately. Execution flows through runSolve — the same admission
// pool, result cache and strategy selection as every synchronous
// request — with progress published on the broker stream named by the
// job ID, so GET /v1/progress/{job_id} works exactly like it does for
// synchronous request IDs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining; not accepting new jobs")
		return
	}
	body, ok := s.readBody(w, r, maxRequestBytes)
	if !ok {
		return
	}
	task, requested, err := s.decodeJob(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	client := clientIdentity(r, requested)

	id := obs.NewRequestID()
	jctx, cancel := context.WithCancel(context.Background())
	meta := jobMeta{mode: task.mode.name, hash: task.hash, strat: task.strat}
	job, err := s.jobs.Create(id, client, meta, cancel)
	if err != nil {
		cancel()
		reason := "table_full"
		if errors.Is(err, jobs.ErrClientCap) {
			reason = "client_cap"
		}
		s.reg.Counter(obs.MetricJobsRejected + "." + reason).Inc()
		w.Header().Set("Retry-After", retryAfter(s.cfg.DefaultTimeout))
		s.writeError(w, http.StatusTooManyRequests, jobRejectMessage(reason, client))
		return
	}
	s.reg.Counter(obs.MetricJobsSubmitted).Inc()

	// The job's progress stream lives under the job ID (nil broker →
	// nil publish hook, no stream).
	publish, closeStream := s.broker.Open(id)
	timeout := s.cfg.DefaultTimeout
	if task.req.TimeoutMS > 0 {
		timeout = time.Duration(task.req.TimeoutMS) * time.Millisecond
	}
	task.progress = publish
	task.onRunning = func() { s.jobs.Start(id) }
	if task.req.Anytime {
		task.onImprove = func(u fpga3d.AnytimeUpdate) {
			s.jobs.SetProgress(id, anytimeProgress{best: u.Best, lower: u.LowerBound, gap: u.Gap})
		}
	}
	s.jobsWG.Add(1)
	go s.executeJob(jctx, id, task, timeout, closeStream)
	// Yield so the job starts on this processor before its 202 is
	// written, not after: a client that polls as soon as it has the 202
	// then finds a short job done more often, rather than seeing it
	// running and waiting to poll again.
	runtime.Gosched()

	w.Header().Set("Location", "/v1/jobs/"+id)
	s.writeJSON(w, http.StatusAccepted, s.wireJob(job))
}

// decodeJob decodes and prepares one job submission body; it also
// returns the client identity the body names, if any. Any error is a
// client error (400).
func (s *Server) decodeJob(body []byte) (*solveTask, string, error) {
	var req jobRequest
	if err := req.decode(wire.NewDecoder(body)); err != nil {
		return nil, "", fmt.Errorf("decoding request: %w", err)
	}
	m, err := modeByName(req.Mode)
	if err != nil {
		return nil, "", err
	}
	task, err := s.prepareSolve(&req.solveRequest, m)
	return task, req.Client, err
}

// jobRejectMessage phrases the two 429 submission rejections.
func jobRejectMessage(reason, client string) string {
	if reason == "client_cap" {
		return fmt.Sprintf("client %q is at its active-job cap; wait for a job to finish or cancel one", client)
	}
	return "job table full of active jobs; retry after some finish"
}

// executeJob drives one async job through runSolve and records its
// terminal state. A job the client canceled keeps its canceled state —
// the store's Finish is a no-op on terminal jobs — and every outcome
// lands in the job-latency histogram.
func (s *Server) executeJob(ctx context.Context, id string, t *solveTask, timeout time.Duration, closeStream func()) {
	defer s.jobsWG.Done()
	defer closeStream()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	resp, err := s.solveRecovered(ctx, t, "job "+id)
	var snap jobs.Job
	var ok bool
	switch {
	case err == nil:
		snap, ok = s.jobs.Finish(id, resp, "")
	case errors.Is(err, ErrQueueFull):
		snap, ok = s.jobs.Finish(id, nil, "server at capacity: admission queue full")
	case errors.Is(err, context.DeadlineExceeded):
		snap, ok = s.jobs.Finish(id, resp, "deadline expired; partial result")
	case errors.Is(err, context.Canceled):
		// Usually the store already marked the job canceled; if the
		// execution context died for another reason, record it.
		snap, ok = s.jobs.Finish(id, resp, "canceled")
	default:
		snap, ok = s.jobs.Finish(id, nil, err.Error())
	}
	if ok {
		s.reg.Histogram(obs.MetricJobLatency).Observe(snap.Finished.Sub(snap.Created).Seconds())
		s.logf("job %s %s after %s", id, snap.State, snap.Finished.Sub(snap.Created).Round(time.Millisecond))
	}
}

// handleJobOp routes the per-job endpoints:
//
//	GET    /v1/jobs/{id}  → snapshot (result included once terminal)
//	DELETE /v1/jobs/{id}  → cancel an active job (it stays resident,
//	                        state "canceled", until TTL or a second
//	                        DELETE); remove a terminal job
func (s *Server) handleJobOp(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter(obs.MetricRequests + ".jobs").Inc()
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, http.StatusBadRequest, "use /v1/jobs/{id}")
		return
	}
	switch r.Method {
	case http.MethodGet:
		j, ok := s.jobs.Get(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, "no such job "+id)
			return
		}
		s.writeJSON(w, http.StatusOK, s.wireJob(j))
	case http.MethodDelete:
		j, ok := s.jobs.Get(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, "no such job "+id)
			return
		}
		if j.State.Terminal() {
			if removed, ok := s.jobs.Remove(id); ok {
				s.writeJSON(w, http.StatusOK, map[string]string{"deleted": id, "state": string(removed.State)})
				return
			}
			// Raced with another DELETE; treat as gone.
			s.writeError(w, http.StatusNotFound, "no such job "+id)
			return
		}
		snap, _ := s.jobs.Cancel(id)
		s.logf("job %s canceled by client (was %s)", id, j.State)
		s.writeJSON(w, http.StatusOK, s.wireJob(snap))
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

// jobStateGauges pre-registers one gauge per job state and returns the
// store observer keeping them current, so all five series exist in
// both metric expositions from the first scrape.
func jobStateGauges(reg *obs.Registry) func(jobs.State, int64) {
	gauges := make(map[jobs.State]*obs.Gauge, len(jobs.States()))
	for _, st := range jobs.States() {
		gauges[st] = reg.Gauge(obs.MetricJobsState + "." + string(st))
	}
	return func(st jobs.State, delta int64) {
		if g, ok := gauges[st]; ok {
			g.Add(delta)
		}
	}
}
