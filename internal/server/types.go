package server

import (
	"fmt"

	"fpga3d"
	"fpga3d/internal/model"
	"fpga3d/internal/wire"
)

// solveRequest is the JSON body of every /v1/* solve endpoint. The
// instance payload uses the same schema as the instances/*.json files
// and decodes straight into a model.Instance with the rest of the
// body, under the same unknown-field check; which of the remaining
// fields are required depends on the endpoint:
//
//	POST /v1/solve          — chip {w,h,t}: is the instance feasible on it?
//	POST /v1/minimize-time  — w, h: minimal T on a fixed w×h chip
//	POST /v1/minimize-chip  — t: minimal square chip side within T cycles
//
// timeout_ms overrides the daemon's -default-timeout for this request;
// no_cache bypasses the result cache (neither read nor written);
// strategy ("staged", "portfolio" or "anneal") overrides the daemon's
// -strategy default for this request — an unknown name is a 400.
// anytime (minimize-time only; a 400 elsewhere) runs the solve in
// anytime mode: improvements stream on the progress channel with
// best_makespan/lower_bound/gap, and a deadline-expired request still
// carries its best incumbent and optimality gap.
type solveRequest struct {
	Instance  *model.Instance `json:"instance"`
	Chip      *fpga3d.Chip    `json:"chip,omitempty"`
	W         int             `json:"w,omitempty"`
	H         int             `json:"h,omitempty"`
	T         int             `json:"t,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	NoCache   bool            `json:"no_cache,omitempty"`
	Strategy  string          `json:"strategy,omitempty"`
	Anytime   bool            `json:"anytime,omitempty"`
}

// decode decodes a solveRequest body at d's cursor (see package wire
// for the rules, which are encoding/json's with unknown fields
// disallowed).
func (req *solveRequest) decode(d *wire.Decoder) error {
	return d.Object(func(key []byte) error {
		if ok, err := req.decodeField(d, key); ok {
			return err
		}
		return wire.UnknownField(key)
	})
}

// decodeField decodes the member named key when it is a solveRequest
// field, and reports whether it was; the request types that embed a
// solveRequest decode their own fields first and then this.
func (req *solveRequest) decodeField(d *wire.Decoder, key []byte) (bool, error) {
	switch wire.Field(key, "instance", "chip", "w", "h", "t", "timeout_ms", "no_cache", "strategy", "anytime") {
	case 0:
		if d.Null() {
			req.Instance = nil
			return true, nil
		}
		if req.Instance == nil {
			req.Instance = new(model.Instance)
		}
		return true, model.DecodeInstance(d, req.Instance)
	case 1:
		if d.Null() {
			req.Chip = nil
			return true, nil
		}
		if req.Chip == nil {
			req.Chip = new(fpga3d.Chip)
		}
		return true, model.DecodeContainer(d, req.Chip)
	case 2:
		return true, d.Int(&req.W)
	case 3:
		return true, d.Int(&req.H)
	case 4:
		return true, d.Int(&req.T)
	case 5:
		return true, d.Int64(&req.TimeoutMS)
	case 6:
		return true, d.Bool(&req.NoCache)
	case 7:
		return true, d.String(&req.Strategy)
	case 8:
		return true, d.Bool(&req.Anytime)
	}
	return false, nil
}

// solveResponse is the JSON answer of every /v1/* solve endpoint.
// Decision is "feasible", "infeasible" or "unknown" (the latter only
// on a 504, carrying the partial result produced before the deadline).
// Value and LowerBound are set by the minimize endpoints; Makespan
// accompanies any witness placement. Strategy echoes the solve
// strategy that produced the answer. Cached reports whether the
// response was served from the canonical-instance cache without
// invoking the solver. RequestID echoes the request's X-Request-Id
// (assigned by the server when the client sent none); it also names
// the live-progress stream at GET /v1/progress/{request_id}, and is
// per-request, so it is blanked before a response is cached.
// BestBound and Gap appear on anytime minimize-time answers only: the
// best proven lower bound at exit and the relative optimality gap
// (0 exactly when the value is proven optimal; positive on a 504
// partial result). They are stripped before a response is cached —
// the cache stores only completed, gap-0 answers — and re-synthesized
// on anytime cache hits.
type solveResponse struct {
	Decision   string            `json:"decision"`
	DecidedBy  string            `json:"decided_by,omitempty"`
	Strategy   string            `json:"strategy,omitempty"`
	RequestID  string            `json:"request_id,omitempty"`
	Value      *int              `json:"value,omitempty"`
	LowerBound *int              `json:"lower_bound,omitempty"`
	BestBound  *int              `json:"best_bound,omitempty"`
	Gap        *float64          `json:"gap,omitempty"`
	Nodes      int64             `json:"nodes"`
	ElapsedMS  int64             `json:"elapsed_ms"`
	Makespan   *int              `json:"makespan,omitempty"`
	Placement  *fpga3d.Placement `json:"placement,omitempty"`
	Cached     bool              `json:"cached"`
	Error      string            `json:"error,omitempty"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status       string `json:"status"` // "ok" or "draining"
	Inflight     int64  `json:"inflight"`
	Queued       int64  `json:"queued"`
	CacheEntries int    `json:"cache_entries"`
}

// errorResponse is the body of every non-2xx answer that is not a
// partial solve result.
type errorResponse struct {
	Error string `json:"error"`
}

// cacheKey builds the result-cache key: the question (endpoint), the
// canonical instance identity, the numeric parameters that complete
// it, and the solve strategy. Options that cannot change the response
// (worker count, per-request deadline) are deliberately excluded — the
// solver's optimum is deterministic — but the strategy is part of the
// key because it changes the reported provenance (decided_by, node
// counts) even though the answers agree.
func cacheKey(mode, hash, strat string, a, b, c int) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%d", mode, hash, strat, a, b, c)
}
