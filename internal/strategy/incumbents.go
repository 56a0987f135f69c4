package strategy

import (
	"context"
	"sync"

	"fpga3d/internal/heur"
	"fpga3d/internal/model"
)

// Incumbents is the incumbent store shared by every probe of one
// optimization run. It memoizes the greedy
// heuristic's minimum-makespan placement per chip footprint — the
// sweeps' probes at different time budgets on the same chip then share
// a single stage-2 computation — and records feasible witnesses so a
// later probe whose container dominates a stored witness is answered
// without any work (the portfolio and anneal presets).
//
// A store is only meaningful for a single instance: the solver
// attaches a fresh store to each optimization run, and rotation's
// per-orientation sub-solves each get their own. All methods are safe
// for concurrent use.
type Incumbents struct {
	mu     sync.Mutex
	heur   map[[2]int]heurEntry
	anneal map[[2]int]heurEntry
	wits   []witnessEntry
}

// heurEntry memoizes heur.MinMakespan for one chip footprint. It
// answers every horizon T of that chip because the list scheduler's
// slot scan is horizon-truncated: the greedy placer under horizon T
// succeeds iff T ≥ mk, and then returns exactly this placement.
type heurEntry struct {
	place *model.Placement
	mk    int
	ok    bool
}

// witnessEntry records a feasible placement by its bounding box, so
// dominance checks need no rescan of the coordinate arrays.
type witnessEntry struct {
	w, h, mk int
	place    *model.Placement
	source   string
}

// NewIncumbents returns an empty store.
func NewIncumbents() *Incumbents {
	return &Incumbents{
		heur:   make(map[[2]int]heurEntry),
		anneal: make(map[[2]int]heurEntry),
	}
}

// MinMakespan returns the greedy minimum-makespan placement for a W×H
// chip, computing it at most once per footprint. hit reports whether
// the entry was served from the memo. The returned placement is the
// stored one — callers must Clone before exposing or mutating it.
func (s *Incumbents) MinMakespan(in *model.Instance, W, H int, o *model.Order) (place *model.Placement, mk int, ok, hit bool) {
	key := [2]int{W, H}
	s.mu.Lock()
	if e, found := s.heur[key]; found {
		s.mu.Unlock()
		return e.place, e.mk, e.ok, true
	}
	s.mu.Unlock()
	// Compute outside the lock; concurrent probes of the same chip may
	// duplicate the work once, but the result is deterministic so
	// whichever entry lands is the same.
	p, m, k := heur.MinMakespan(in, W, H, o)
	s.mu.Lock()
	s.heur[key] = heurEntry{place: p, mk: m, ok: k}
	s.mu.Unlock()
	return p, m, k, false
}

// Anneal returns the annealing placer's best schedule for a W×H chip,
// computed at most once per footprint with the full iteration budget.
// Memoizing a probe-independent walk (no per-probe early exit) keeps
// the result reusable across a sweep's probes at different time
// budgets: the probe at budget T succeeds iff T ≥ mk, exactly like
// the greedy memo. The walk is deterministic per seed, so concurrent
// duplicate computation stores the same entry. The returned placement
// is the stored one — callers must Clone before exposing or mutating
// it.
func (s *Incumbents) Anneal(ctx context.Context, in *model.Instance, W, H int, o *model.Order, seed int64) (place *model.Placement, mk int, ok, hit bool) {
	key := [2]int{W, H}
	s.mu.Lock()
	if e, found := s.anneal[key]; found {
		s.mu.Unlock()
		return e.place, e.mk, e.ok, true
	}
	s.mu.Unlock()
	p, m, k := heur.AnnealMinMakespan(ctx, in, W, H, o, heur.AnnealOptions{Seed: seed})
	if ctx != nil && ctx.Err() != nil {
		// A truncated walk is still a valid witness, but memoizing it
		// would let one canceled probe degrade every later one.
		return p, m, k, false
	}
	s.mu.Lock()
	s.anneal[key] = heurEntry{place: p, mk: m, ok: k}
	s.mu.Unlock()
	return p, m, k, false
}

// RecordWitness stores a feasible placement together with its bounding
// box so later dominance lookups can reuse it.
func (s *Incumbents) RecordWitness(in *model.Instance, p *model.Placement, source string) {
	if p == nil {
		return
	}
	var w, h, mk int
	for i, t := range in.Tasks {
		if x := p.X[i] + t.W; x > w {
			w = x
		}
		if y := p.Y[i] + t.H; y > h {
			h = y
		}
		if f := p.S[i] + t.Dur; f > mk {
			mk = f
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Skip the insert if an existing witness already dominates the new
	// one, then drop entries the new witness dominates.
	for _, e := range s.wits {
		if e.w <= w && e.h <= h && e.mk <= mk {
			return // an at-least-as-good witness is already stored
		}
	}
	kept := s.wits[:0]
	for _, e := range s.wits {
		if !(w <= e.w && h <= e.h && mk <= e.mk) {
			kept = append(kept, e)
		}
	}
	s.wits = append(kept, witnessEntry{w: w, h: h, mk: mk, place: p, source: source})
}

// Dominating returns a stored feasible witness that fits container c
// (bounding box within W×H, makespan within T), or ok=false. The
// placement is shared — callers must Clone before exposing it.
func (s *Incumbents) Dominating(c model.Container) (place *model.Placement, source string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.wits {
		if e.w <= c.W && e.h <= c.H && e.mk <= c.T {
			return e.place, e.source, true
		}
	}
	return nil, "", false
}
