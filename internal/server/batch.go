package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fpga3d/internal/obs"
	"fpga3d/internal/wire"
)

// maxBatchDefault bounds entries per /v1/solve-batch request when
// Config.MaxBatch is zero.
const maxBatchDefault = 64

// batchEntry is one instance inside a batch body: a solveRequest plus
// the question kind ("solve" by default, or "minimize-time" /
// "minimize-chip"). Entry-level timeout_ms/strategy/no_cache override
// the batch-level defaults.
type batchEntry struct {
	Mode string `json:"mode,omitempty"`
	solveRequest
}

// batchRequest is the JSON body of POST /v1/solve-batch: up to
// -max-batch entries answered in one round trip. TimeoutMS and
// Strategy are per-entry defaults for entries that do not set their
// own; each entry still runs under its own deadline and admission
// slot, so one slow instance cannot time out its siblings. The
// envelope decodes in one pass with its entries decoded in place; an
// entry that is well-formed JSON but fails to decode keeps its error
// and fails alone, while a syntax error anywhere fails the whole body.
type batchRequest struct {
	Requests  []batchSlot
	TimeoutMS int64
	Strategy  string
}

// batchSlot is one decoded batch entry, or why it did not decode.
type batchSlot struct {
	entry batchEntry
	err   error
}

// decode decodes a batchRequest body at d's cursor. A repeated
// "requests" key replaces the entries of an earlier one.
func (b *batchRequest) decode(d *wire.Decoder) error {
	return d.Object(func(key []byte) error {
		switch wire.Field(key, "requests", "timeout_ms", "strategy") {
		case 0:
			return wire.Slice(d, &b.Requests, func(slot *batchSlot) error {
				*slot = batchSlot{}
				failed, err := d.Isolated(func() error { return slot.entry.decode(d) })
				slot.err = failed
				return err
			})
		case 1:
			return d.Int64(&b.TimeoutMS)
		case 2:
			return d.String(&b.Strategy)
		}
		return wire.UnknownField(key)
	})
}

// decode decodes one batchEntry at d's cursor, as solveRequest.decode
// does.
func (e *batchEntry) decode(d *wire.Decoder) error {
	return d.Object(func(key []byte) error {
		if wire.Field(key, "mode") == 0 {
			return d.String(&e.Mode)
		}
		if ok, err := e.decodeField(d, key); ok {
			return err
		}
		return wire.UnknownField(key)
	})
}

// batchError reports one failed batch entry: its position in the
// request, its canonical hash when the instance was parseable, and
// what went wrong. Entries that hit their deadline or the admission
// queue land here (batch results carry definitive answers only).
type batchError struct {
	Index int    `json:"index"`
	Hash  string `json:"canonical_hash,omitempty"`
	Error string `json:"error"`
}

// batchResponse is the JSON answer of POST /v1/solve-batch. Results
// are keyed by each instance's CanonicalHash; Order maps request
// positions to those keys ("" for entries that produced no result).
// The request as a whole succeeds (200) whenever the body was
// well-formed — per-entry failures are partial by design and reported
// in Errors.
type batchResponse struct {
	// Count is the number of entries received.
	Count int `json:"count"`
	// Succeeded is the number of entries with a result in Results.
	Succeeded int `json:"succeeded"`
	// Failed is the number of entries in Errors.
	Failed int `json:"failed"`
	// Deduped counts entries answered by another entry's solve because
	// they asked the identical question of a canonically identical
	// instance.
	Deduped int `json:"deduped,omitempty"`
	// Results maps canonical instance hashes to their answers.
	Results map[string]*solveResponse `json:"results"`
	// Order lists the canonical hash of each entry, in request order.
	Order []string `json:"order"`
	// Errors lists the entries that produced no result.
	Errors []batchError `json:"errors,omitempty"`
	// RequestID echoes the batch request's X-Request-Id.
	RequestID string `json:"request_id,omitempty"`
}

// batchItem is the per-entry working state of one batch request.
type batchItem struct {
	index  int
	task   *solveTask // nil when the entry failed to decode or prepare
	hash   string
	key    string
	leader *batchItem // non-nil on deduped followers
	resp   *solveResponse
	errMsg string
}

// modeByName maps a batch/job "mode" field to its solveMode; the empty
// string means "solve".
func modeByName(name string) (*solveMode, error) {
	switch name {
	case "", "solve":
		return modeSolve, nil
	case "minimize-time":
		return modeMinTime, nil
	case "minimize-chip":
		return modeMinChip, nil
	}
	return nil, fmt.Errorf("unknown mode %q (valid: solve, minimize-time, minimize-chip)", name)
}

// handleSolveBatch serves POST /v1/solve-batch: N instances in one
// request, answered through the same cache, admission pool and
// strategy selection as the synchronous endpoints. Entries asking the
// identical question of canonically identical instances are solved
// once; distinct questions about the same instance in one batch are
// rejected per entry, because results are keyed by canonical hash.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.reg.Counter(obs.MetricRequests + ".solve_batch").Inc()

	body, ok := s.readBody(w, r, maxRequestBytes)
	if !ok {
		return
	}
	var req batchRequest
	if err := req.decode(wire.NewDecoder(body)); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	maxBatch := s.cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = maxBatchDefault
	}
	if len(req.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, `batch needs a non-empty "requests" array`)
		return
	}
	if len(req.Requests) > maxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d entries exceeds the %d-entry limit", len(req.Requests), maxBatch))
		return
	}
	s.reg.Counter(obs.MetricBatchEntries).Add(int64(len(req.Requests)))

	resp := &batchResponse{
		Count:     len(req.Requests),
		Results:   make(map[string]*solveResponse),
		Order:     make([]string, len(req.Requests)),
		RequestID: obs.RequestIDFromContext(r.Context()),
	}

	// Prepare every entry, dedup identical questions, and reject
	// hash-key collisions (two different questions about one instance
	// cannot share the response map).
	items := make([]*batchItem, 0, len(req.Requests))
	byKey := make(map[string]*batchItem)  // cache key → leader
	byHash := make(map[string]*batchItem) // canonical hash → first holder
	for i := range req.Requests {
		it := &batchItem{index: i}
		task, err := s.prepareEntry(&req.Requests[i], &req)
		if err != nil {
			it.errMsg = err.Error()
			items = append(items, it)
			continue
		}
		it.task, it.hash = task, task.hash
		it.key = task.mode.key(task.req, task.hash, task.strat)
		resp.Order[i] = it.hash
		if leader, ok := byKey[it.key]; ok {
			it.leader = leader
			resp.Deduped++
			s.reg.Counter(obs.MetricBatchDeduped).Inc()
		} else if prev, ok := byHash[it.hash]; ok {
			it.errMsg = fmt.Sprintf(
				"entry %d asks a different question of the same instance as entry %d; batch results are keyed by canonical hash — split them across batches",
				i, prev.index)
			resp.Order[i] = ""
		} else {
			byKey[it.key] = it
			byHash[it.hash] = it
		}
		items = append(items, it)
	}

	// Solve every leader concurrently; the admission pool is the
	// throttle, exactly as if the entries had arrived as N requests.
	timeout := s.cfg.DefaultTimeout
	var wg sync.WaitGroup
	for _, it := range items {
		if it.errMsg != "" || it.leader != nil {
			continue
		}
		wg.Add(1)
		go func(it *batchItem) {
			defer wg.Done()
			entryTimeout := timeout
			if it.task.req.TimeoutMS > 0 {
				entryTimeout = time.Duration(it.task.req.TimeoutMS) * time.Millisecond
			}
			ctx, cancel := context.WithTimeout(r.Context(), entryTimeout)
			defer cancel()
			res, err := s.solveRecovered(ctx, it.task, fmt.Sprintf("batch entry %d", it.index))
			switch {
			case err == nil:
				it.resp = res
			case err == ErrQueueFull:
				it.errMsg = "server at capacity: admission queue full"
			case err == context.DeadlineExceeded:
				it.errMsg = "deadline expired"
			case err == context.Canceled:
				it.errMsg = "canceled"
			default:
				it.errMsg = err.Error()
			}
		}(it)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client went away mid-batch; the connection is gone
	}

	for _, it := range items {
		if it.leader != nil {
			// Follower: inherit the leader's outcome.
			it.resp, it.errMsg = it.leader.resp, it.leader.errMsg
			if it.errMsg != "" {
				resp.Order[it.index] = ""
			}
		}
		if it.errMsg != "" {
			resp.Errors = append(resp.Errors, batchError{Index: it.index, Hash: it.hash, Error: it.errMsg})
			continue
		}
		resp.Results[it.hash] = it.resp
		resp.Succeeded++
	}
	resp.Failed = len(resp.Errors)
	s.writeJSON(w, http.StatusOK, resp)
}

// prepareEntry fills in the batch-level defaults a decoded entry does
// not set, and prepares it. Its errors, a decode error included, fail
// only this entry.
func (s *Server) prepareEntry(slot *batchSlot, b *batchRequest) (*solveTask, error) {
	if slot.err != nil {
		return nil, fmt.Errorf("decoding entry: %w", slot.err)
	}
	e := slot.entry
	if e.TimeoutMS == 0 {
		e.TimeoutMS = b.TimeoutMS
	}
	if e.Strategy == "" {
		e.Strategy = b.Strategy
	}
	m, err := modeByName(e.Mode)
	if err != nil {
		return nil, err
	}
	return s.prepareSolve(&e.solveRequest, m)
}
