package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpga3d/internal/obs"
	"fpga3d/internal/online"
	"fpga3d/internal/strategy"
)

// sessionHandle pairs one online placement session with its serving
// bookkeeping. The engine serializes its own operations; lastUsed is
// guarded by the manager lock.
type sessionHandle struct {
	id          string
	eng         *online.Session
	created     time.Time
	lastUsed    time.Time
	closeStream func() // ends the SSE event stream (terminal done frame)
}

// sessionManager owns the live sessions of a daemon: creation against
// the MaxSessions cap, lookup with lazy TTL eviction (an idle session
// is dropped the next time any session call runs), and explicit
// deletion. No background janitor — eviction piggybacks on traffic, so
// an idle daemon holds at most the sessions its TTL already admitted.
type sessionManager struct {
	mu       sync.Mutex
	sessions map[string]*sessionHandle
	ttl      time.Duration
	max      int
	now      func() time.Time // injectable clock for TTL tests
}

func newSessionManager(ttl time.Duration, max int) *sessionManager {
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	if max <= 0 {
		max = 64
	}
	return &sessionManager{
		sessions: make(map[string]*sessionHandle),
		ttl:      ttl,
		max:      max,
		now:      time.Now,
	}
}

// sweepLocked evicts sessions idle past the TTL; callers hold m.mu.
func (m *sessionManager) sweepLocked(s *Server) {
	cutoff := m.now().Add(-m.ttl)
	for id, h := range m.sessions {
		if h.lastUsed.Before(cutoff) {
			delete(m.sessions, id)
			h.closeStream()
			s.reg.Counter(obs.MetricSessionsExpired).Inc()
			s.reg.Gauge(obs.MetricSessionsActive).Add(-1)
			s.logf("session %s expired after %s idle", id, m.ttl)
		}
	}
}

// add registers a new session, answering false when the cap is reached.
func (m *sessionManager) add(s *Server, h *sessionHandle) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(s)
	if len(m.sessions) >= m.max {
		return false
	}
	h.lastUsed = m.now()
	m.sessions[h.id] = h
	return true
}

// get looks a session up, refreshing its idle timer.
func (m *sessionManager) get(s *Server, id string) (*sessionHandle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(s)
	h, ok := m.sessions[id]
	if ok {
		h.lastUsed = m.now()
	}
	return h, ok
}

// remove deletes a session by ID (client DELETE).
func (m *sessionManager) remove(id string) (*sessionHandle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	return h, ok
}

// createSessionRequest is the wire body of POST /v1/sessions.
type createSessionRequest struct {
	W int `json:"w"`
	H int `json:"h"`
	// Strategy overrides the daemon default for this session's exact
	// probes.
	Strategy string `json:"strategy,omitempty"`
	// ProbeNodeLimit bounds branch-and-bound nodes per exact admission
	// probe (0 = unlimited; limited probes may answer "unknown").
	ProbeNodeLimit int64 `json:"probe_node_limit,omitempty"`
	// MaxMoves bounds relocations per defragmentation plan (0 = 16).
	MaxMoves int `json:"max_moves,omitempty"`
}

// sessionResponse is the wire shape of a session snapshot, shared by
// create, GET and the mutation endpoints' "state" echo.
type sessionResponse struct {
	ID string `json:"id"`
	*online.Snapshot
}

// admitWire is the wire body of POST /v1/sessions/{id}/admit.
type admitWire struct {
	online.AdmitRequest
	// TimeoutMS bounds the exact probe's wall clock (0 = the daemon's
	// default request timeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// departWire is the wire body of POST /v1/sessions/{id}/depart.
type departWire struct {
	ID int `json:"id"`
	At int `json:"at,omitempty"`
}

// defragWire is the wire body of POST /v1/sessions/{id}/defrag.
type defragWire struct {
	At int `json:"at,omitempty"`
}

// defragResponse answers an explicit defrag with its validated plan.
type defragResponse struct {
	Moves   []online.Move `json:"moves"`
	Replans int           `json:"replans,omitempty"`
}

// handleSessions serves the collection endpoint: POST /v1/sessions
// creates a session and answers 201 with its snapshot (the Location
// header carries the canonical URL).
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.reg.Counter(obs.MetricRequests + ".sessions").Inc()
	var req createSessionRequest
	if !s.decodeSessionBody(w, r, &req) {
		return
	}
	strat := req.Strategy
	if strat == "" {
		strat = s.cfg.Strategy
	}
	if strat != "" && !strategy.Valid(strat) {
		s.writeError(w, http.StatusBadRequest,
			`unknown strategy `+strconvQuote(strat)+` (use one of: `+strings.Join(strategy.Names(), ", ")+`)`)
		return
	}

	id := obs.NewRequestID()
	publish, closeStream := s.broker.Open(sessionStreamID(id))
	eng, err := online.NewSession(online.Config{
		W: req.W, H: req.H,
		Strategy:       strat,
		Workers:        s.cfg.Workers,
		ProbeNodeLimit: req.ProbeNodeLimit,
		MaxMoves:       req.MaxMoves,
		Metrics:        s.reg,
		Events:         publish,
	})
	if err != nil {
		closeStream()
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	h := &sessionHandle{id: id, eng: eng, created: time.Now(), closeStream: closeStream}
	if !s.sessions.add(s, h) {
		closeStream()
		s.writeError(w, http.StatusTooManyRequests, "session limit reached")
		return
	}
	s.reg.Counter(obs.MetricSessionsCreated).Inc()
	s.reg.Gauge(obs.MetricSessionsActive).Add(1)
	s.logf("session %s created: %dx%d device, strategy %s", id, req.W, req.H, strat)
	w.Header().Set("Location", "/v1/sessions/"+id)
	s.writeJSON(w, http.StatusCreated, &sessionResponse{ID: id, Snapshot: eng.State(0)})
}

// handleSessionOp routes the per-session endpoints:
//
//	GET    /v1/sessions/{id}         → snapshot
//	DELETE /v1/sessions/{id}         → remove
//	POST   /v1/sessions/{id}/admit   → admission decision
//	POST   /v1/sessions/{id}/depart  → early departure
//	POST   /v1/sessions/{id}/defrag  → explicit compaction
//	GET    /v1/sessions/{id}/events  → SSE event stream
func (s *Server) handleSessionOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	id, op, _ := strings.Cut(rest, "/")
	if id == "" || strings.Contains(op, "/") {
		s.writeError(w, http.StatusBadRequest, "use /v1/sessions/{id}[/admit|depart|defrag|events]")
		return
	}
	s.reg.Counter(obs.MetricRequests + ".sessions").Inc()
	if op == "events" {
		s.handleSessionEvents(w, r, id)
		return
	}
	h, ok := s.sessions.get(s, id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such session "+id)
		return
	}
	switch {
	case op == "" && r.Method == http.MethodGet:
		s.writeJSON(w, http.StatusOK, &sessionResponse{ID: id, Snapshot: h.eng.State(0)})
	case op == "" && r.Method == http.MethodDelete:
		if h, ok := s.sessions.remove(id); ok {
			h.closeStream()
			s.reg.Counter(obs.MetricSessionsDeleted).Inc()
			s.reg.Gauge(obs.MetricSessionsActive).Add(-1)
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	case op == "":
		s.writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	case r.Method != http.MethodPost:
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
	case op == "admit":
		s.handleSessionAdmit(w, r, h)
	case op == "depart":
		s.handleSessionDepart(w, r, h)
	case op == "defrag":
		s.handleSessionDefrag(w, r, h)
	default:
		s.writeError(w, http.StatusNotFound, "unknown session operation "+op)
	}
}

// handleSessionAdmit decides one admission. The exact probe runs under
// the request context bounded by timeout_ms (default: the daemon's
// request timeout), so a slow probe answers "unknown" rather than
// hanging the session.
func (s *Server) handleSessionAdmit(w http.ResponseWriter, r *http.Request, h *sessionHandle) {
	var req admitWire
	if !s.decodeSessionBody(w, r, &req) {
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	res, err := h.eng.Admit(ctx, req.AdmitRequest)
	s.reg.Histogram(obs.MetricSessionAdmitLatency).Observe(time.Since(start).Seconds())
	if err != nil {
		s.reg.Counter(obs.MetricSolveErrors).Inc()
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.reg.Counter(obs.MetricSessionAdmits + "." + res.Decision).Inc()
	if n := len(res.Moves); n > 0 {
		s.reg.Counter(obs.MetricSessionDefragMoves).Add(int64(n))
	}
	s.writeJSON(w, http.StatusOK, res)
}

// handleSessionDepart removes one module early.
func (s *Server) handleSessionDepart(w http.ResponseWriter, r *http.Request, h *sessionHandle) {
	var req departWire
	if !s.decodeSessionBody(w, r, &req) {
		return
	}
	if err := h.eng.Depart(req.ID, req.At); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, online.ErrNotFound) {
			code = http.StatusNotFound
		}
		s.writeError(w, code, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, &sessionResponse{ID: h.id, Snapshot: h.eng.State(0)})
}

// handleSessionDefrag triggers an explicit compaction and answers with
// the validated (possibly empty) plan.
func (s *Server) handleSessionDefrag(w http.ResponseWriter, r *http.Request, h *sessionHandle) {
	var req defragWire
	if !s.decodeSessionBody(w, r, &req) {
		return
	}
	plan, err := h.eng.Defrag(req.At)
	if err != nil {
		s.reg.Counter(obs.MetricSolveErrors).Inc()
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if n := len(plan.Moves); n > 0 {
		s.reg.Counter(obs.MetricSessionDefragMoves).Add(int64(n))
	}
	s.writeJSON(w, http.StatusOK, &defragResponse{Moves: plan.Moves, Replans: plan.Replans})
}

// handleSessionEvents streams a session's lifecycle events as SSE
// frames through the shared progress broker: each admit/depart/defrag
// arrives as an "event: progress" frame whose phase field carries the
// event kind (e.g. "admit:defrag"); deleting or expiring the session
// ends the stream with a terminal "event: done" frame. The stream
// outlives individual operations — it is the session-scoped analogue of
// GET /v1/progress/{request-id}.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if _, ok := s.sessions.get(s, id); !ok {
		s.writeError(w, http.StatusNotFound, "no such session "+id)
		return
	}
	// Reuse the progress SSE loop by rewriting to the broker stream ID.
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/progress/" + sessionStreamID(id)
	s.handleProgress(w, r2)
}

// sessionStreamID namespaces a session's broker stream away from
// request-ID progress streams.
func sessionStreamID(id string) string { return "session-" + id }

// maxSessionBytes bounds a session-API request body; session
// operations are tiny compared to solve instances, so 64 KiB is
// generous.
const maxSessionBytes = 64 << 10

// decodeSessionBody decodes a session-API body into v, rejecting
// unknown fields as the solve endpoints do. When it fails it has
// answered the request (413 or 400) and returns false.
func (s *Server) decodeSessionBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := s.readBody(w, r, maxSessionBytes)
	if !ok {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

// strconvQuote quotes a user-supplied string for an error message.
func strconvQuote(s string) string { return strconv.Quote(s) }
