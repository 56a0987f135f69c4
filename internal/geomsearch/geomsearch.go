// Package geomsearch implements the baseline the paper argues against:
// an exact, purely geometric enumeration that assigns every module an
// explicit grid position (the tree-search equivalent of the 0-1 grid
// ILP models of Beasley and Hadjiconstantinou–Christofides, which "fail
// to solve technical problems of interesting size").
//
// It is used (a) as a trusted oracle on tiny instances in the test
// suite and (b) as the comparison baseline in the ablation benchmarks.
package geomsearch

import (
	"time"

	"fpga3d/internal/model"
)

// Status mirrors the outcome classes of the packing-class engine.
type Status int

const (
	Feasible Status = iota
	Infeasible
	NodeLimit
	TimeLimit
)

func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	case TimeLimit:
		return "time-limit"
	}
	return "unknown"
}

// Result reports the outcome of a geometric search.
type Result struct {
	Status    Status
	Placement *model.Placement // non-nil iff Status == Feasible
	Nodes     int64
}

// Options bounds the search effort.
type Options struct {
	NodeLimit int64     // 0 = unlimited
	Deadline  time.Time // zero = none
}

type searcher struct {
	in    *model.Instance
	c     model.Container
	o     *model.Order
	opt   Options
	order []int // task placement order (topological)
	fixed []int // prescribed start times (SolveFixed), or nil
	place *model.Placement
	nodes int64
	abort Status // Feasible used as "not aborted" sentinel
}

// Solve decides feasibility by depth-first enumeration of all integer
// positions, task by task in a topological order.
func Solve(in *model.Instance, c model.Container, o *model.Order, opt Options) Result {
	return solve(in, c, o, nil, opt)
}

// SolveFixed decides the FixedS variant by the same enumeration with
// task v pinned to start at starts[v], a schedule valid for c.T and o:
// only the spatial positions are searched.
func SolveFixed(in *model.Instance, c model.Container, o *model.Order, starts []int, opt Options) Result {
	return solve(in, c, o, starts, opt)
}

func solve(in *model.Instance, c model.Container, o *model.Order, fixed []int, opt Options) Result {
	if !c.Fits(in) {
		return Result{Status: Infeasible}
	}
	if in.Volume() > c.Volume() {
		return Result{Status: Infeasible}
	}
	s := &searcher{in: in, c: c, o: o, opt: opt, fixed: fixed, abort: Feasible}
	s.place = model.NewPlacement(in.N())
	topo, ok := o.Closure().TopoSort()
	if !ok {
		return Result{Status: Infeasible}
	}
	s.order = topo
	if s.dfs(0) {
		return Result{Status: Feasible, Placement: s.place, Nodes: s.nodes}
	}
	if s.abort != Feasible {
		return Result{Status: s.abort, Nodes: s.nodes}
	}
	return Result{Status: Infeasible, Nodes: s.nodes}
}

func (s *searcher) dfs(depth int) bool {
	if s.abort != Feasible {
		return false
	}
	s.nodes++
	if s.opt.NodeLimit > 0 && s.nodes > s.opt.NodeLimit {
		s.abort = NodeLimit
		return false
	}
	if !s.opt.Deadline.IsZero() && s.nodes%4096 == 0 && time.Now().After(s.opt.Deadline) {
		s.abort = TimeLimit
		return false
	}
	if depth == s.in.N() {
		return true
	}
	v := s.order[depth]
	t := s.in.Tasks[v]
	// Earliest start from already placed predecessors (the topological
	// placement order guarantees they are all placed).
	est := 0
	for d := 0; d < depth; d++ {
		u := s.order[d]
		if s.o.Precedes(u, v) {
			if f := s.place.S[u] + s.in.Tasks[u].Dur; f > est {
				est = f
			}
		}
	}
	// The longest chain after v must still fit behind it.
	lastStart := s.c.T - t.Dur - s.o.Tail(v)
	if s.fixed != nil {
		est, lastStart = s.fixed[v], s.fixed[v]
	}
	for st := est; st <= lastStart; st++ {
		for y := 0; y+t.H <= s.c.H; y++ {
			for x := 0; x+t.W <= s.c.W; x++ {
				if !s.freeAt(depth, v, x, y, st) {
					continue
				}
				s.place.X[v], s.place.Y[v], s.place.S[v] = x, y, st
				if s.dfs(depth + 1) {
					return true
				}
				if s.abort != Feasible {
					return false
				}
			}
		}
	}
	return false
}

// freeAt reports whether task v at (x, y, st) avoids every task placed
// at depths < depth.
func (s *searcher) freeAt(depth, v, x, y, st int) bool {
	t := s.in.Tasks[v]
	for d := 0; d < depth; d++ {
		u := s.order[d]
		tu := s.in.Tasks[u]
		if s.place.X[u] < x+t.W && x < s.place.X[u]+tu.W &&
			s.place.Y[u] < y+t.H && y < s.place.Y[u]+tu.H &&
			s.place.S[u] < st+t.Dur && st < s.place.S[u]+tu.Dur {
			return false
		}
	}
	return true
}
