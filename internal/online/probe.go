package online

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fpga3d/internal/model"
	"fpga3d/internal/solver"
	"fpga3d/internal/strategy"
)

// staticTask is one entry of the equivalent static instance: a resident
// (relID ≥ 0) or the candidate module (relID < 0), with its start time
// relative to the session clock and its current position (meaningful
// for residents only).
type staticTask struct {
	relID int // resident ID, or -1 for the candidate
	name  string
	w, h  int
	dur   int // remaining duration for active residents
	start int // relative to s.now (0 for active residents and candidate)
	curX  int
	curY  int
}

// staticProblem builds the static fixed-schedule instance equivalent to
// "can this module start now": active residents contribute their
// remaining duration at start 0, reserved residents their full duration
// at their reserved relative start, and the candidate (when non-nil)
// starts at 0. Construction order is residents by ascending ID, then
// the candidate; T is the maximum relative finish.
func (s *Session) staticProblem(cand *AdmitRequest) (tasks []staticTask, T int) {
	for _, r := range s.residentsLocked() {
		t := staticTask{relID: r.ID, name: r.Name, w: r.W, h: r.H, curX: r.X, curY: r.Y}
		if r.Start <= s.now {
			t.start, t.dur = 0, r.Finish()-s.now
		} else {
			t.start, t.dur = r.Start-s.now, r.Dur
		}
		tasks = append(tasks, t)
		if f := t.start + t.dur; f > T {
			T = f
		}
	}
	if cand != nil {
		tasks = append(tasks, staticTask{relID: -1, name: cand.Name, w: cand.W, h: cand.H, dur: cand.Dur})
		if cand.Dur > T {
			T = cand.Dur
		}
	}
	return tasks, T
}

// instanceOf materializes the model instance and start vector for a
// static problem, in construction order.
func instanceOf(tasks []staticTask) (*model.Instance, []int) {
	in := &model.Instance{Name: "online-probe", Tasks: make([]model.Task, len(tasks))}
	starts := make([]int, len(tasks))
	for i, t := range tasks {
		name := t.name
		if name == "" {
			name = fmt.Sprintf("m%d", i)
		}
		in.Tasks[i] = model.Task{Name: fmt.Sprintf("%s#%d", name, i), W: t.w, H: t.h, Dur: t.dur}
		starts[i] = t.start
	}
	return in, starts
}

// probeKey returns a sound cache key for a static problem. The
// instance's order-independent CanonicalHash alone is not enough: start
// times live in a separate positional vector, so two different
// problems (same task multiset, starts attached to different tasks)
// could share a hash. Appending the (w,h,dur,start) tuples in sorted
// order closes that hole — the sorted tuple list determines feasibility
// exactly, because tasks with identical tuples are interchangeable.
func probeKey(in *model.Instance, tasks []staticTask, c model.Container) (string, []int) {
	rank := sortedRanks(tasks)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%dx%dx%d", in.CanonicalHash(), c.W, c.H, c.T)
	for _, i := range rank {
		t := tasks[i]
		fmt.Fprintf(&b, "|%d:%d:%d:%d", t.w, t.h, t.dur, t.start)
	}
	return b.String(), rank
}

// sortedRanks returns task indices ordered by (w, h, dur, start), with
// construction index as the stable tiebreak. Tasks with equal tuples
// are interchangeable boxes, so a cached witness stored in this order
// can be remapped onto any session whose problem sorts identically.
func sortedRanks(tasks []staticTask) []int {
	rank := make([]int, len(tasks))
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool {
		x, y := tasks[rank[a]], tasks[rank[b]]
		if x.w != y.w {
			return x.w < y.w
		}
		if x.h != y.h {
			return x.h < y.h
		}
		if x.dur != y.dur {
			return x.dur < y.dur
		}
		if x.start != y.start {
			return x.start < y.start
		}
		return rank[a] < rank[b]
	})
	return rank
}

// probeEntry is one cached probe answer. For feasible answers, coords
// holds the witness positions aligned with the sorted tuple order.
type probeEntry struct {
	feasible bool
	coords   [][2]int
}

// probeCache is a bounded FIFO map from probe keys to decisions and
// incumbent witnesses. Unknown answers are never stored.
type probeCache struct {
	cap     int
	entries map[string]*probeEntry
	order   []string
	hits    int64
	misses  int64
}

// newProbeCache returns a cache holding up to size entries (0 = 128,
// negative disables caching).
func newProbeCache(size int) *probeCache {
	if size == 0 {
		size = 128
	}
	if size < 0 {
		return &probeCache{}
	}
	return &probeCache{cap: size, entries: make(map[string]*probeEntry)}
}

func (c *probeCache) get(key string) *probeEntry {
	if c.entries == nil {
		return nil
	}
	e := c.entries[key]
	if e == nil {
		c.misses++
		return nil
	}
	c.hits++
	return e
}

func (c *probeCache) put(key string, e *probeEntry) {
	if c.entries == nil {
		return
	}
	if _, ok := c.entries[key]; ok {
		c.entries[key] = e
		return
	}
	if len(c.order) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = e
	c.order = append(c.order, key)
}

// probeLocked runs ladder tiers 3–5: cached witness, exact probe —
// and turns a relocating witness into a validated, applied
// defragmentation plan. Callers hold s.mu.
func (s *Session) probeLocked(ctx context.Context, req AdmitRequest) (*AdmitResult, error) {
	tasks, T := s.staticProblem(&req)
	in, starts := instanceOf(tasks)
	c := s.device(T)
	key, rank := probeKey(in, tasks, c)

	// Tier 3: cached answer. A stored infeasibility is order-invariant
	// and final; a stored witness is remapped through the sorted ranks
	// and re-verified positionally before trust (verify-on-hit, like
	// the serving cache).
	if e := s.cache.get(key); e != nil {
		s.metric("online.probe.cache.hits")
		if !e.feasible {
			s.count.ByCache++
			return &AdmitResult{Decision: DecisionRejected, DecidedBy: "cache"}, nil
		}
		if p := remapWitness(e, rank, len(tasks), in, c, starts); p != nil {
			s.count.ByCache++
			return s.applyWitnessLocked(req, tasks, p, "cache", 0)
		}
	} else {
		s.metric("online.probe.cache.misses")
	}

	// Tier 4: exact fixed-schedule probe with full relocation freedom.
	s.metric("online.probe.exact")
	res, err := solver.FeasibleFixedScheduleCtx(ctx, in, c, starts, solver.Options{
		NodeLimit: s.cfg.ProbeNodeLimit,
		Workers:   s.cfg.Workers,
		Strategy:  s.cfg.Strategy,
		Metrics:   s.cfg.Metrics,
	})
	if err != nil {
		// The static instance is session-constructed, so a validation
		// error here is an internal invariant violation, not an
		// admission answer.
		return nil, fmt.Errorf("online: static probe rejected its own instance: %w", err)
	}
	s.count.ProbeNodes += res.Stats.Nodes
	switch res.Decision {
	case strategy.Feasible:
		s.cache.put(key, entryFor(res.Placement, rank))
		s.count.ByProbe++
		return s.applyWitnessLocked(req, tasks, res.Placement, "probe", res.Stats.Nodes)
	case strategy.Infeasible:
		s.cache.put(key, &probeEntry{feasible: false})
		s.count.ByProbe++
		return &AdmitResult{Decision: DecisionRejected, DecidedBy: "probe", Nodes: res.Stats.Nodes}, nil
	default:
		return &AdmitResult{Decision: DecisionUnknown, DecidedBy: "probe", Nodes: res.Stats.Nodes}, nil
	}
}

// entryFor stores a witness in sorted tuple order.
func entryFor(p *model.Placement, rank []int) *probeEntry {
	e := &probeEntry{feasible: true, coords: make([][2]int, len(rank))}
	for k, i := range rank {
		e.coords[k] = [2]int{p.X[i], p.Y[i]}
	}
	return e
}

// remapWitness reconstructs a placement for the current construction
// order from a cached witness: sorted rank k of the current problem
// takes the stored coordinates of rank k. Equal tuples are
// interchangeable, so the assignment is valid whenever the cached
// problem really matches — which the positional re-verification
// confirms (nil on any mismatch).
func remapWitness(e *probeEntry, rank []int, n int, in *model.Instance, c model.Container, starts []int) *model.Placement {
	if len(e.coords) != n {
		return nil
	}
	p := model.NewPlacement(n)
	for k, i := range rank {
		p.X[i], p.Y[i] = e.coords[k][0], e.coords[k][1]
	}
	copy(p.S, starts)
	order, err := in.Order()
	if err != nil {
		return nil
	}
	if err := p.Verify(in, c, order); err != nil {
		return nil
	}
	return p
}

// metric bumps a counter on the session registry (nil-safe).
func (s *Session) metric(name string) { s.cfg.Metrics.Counter(name).Inc() }
