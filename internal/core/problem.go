// Package core implements the packing-class branch-and-bound engine —
// the primary contribution of the paper.
//
// A d-dimensional orthogonal packing is characterized (Fekete–Schepers)
// by its tuple of component graphs G_1..G_d: {u,v} ∈ E_i iff the
// projections of boxes u and v onto axis i overlap. The tuple is a
// *packing class* iff
//
//	C1: every G_i is an interval graph,
//	C2: every stable set S of G_i satisfies Σ_{v∈S} w_i(v) ≤ W_i,
//	C3: E_1 ∩ … ∩ E_d = ∅,
//
// and every packing class corresponds to at least one feasible packing
// (Theorem 1). The engine searches over the state of each (dimension,
// pair) — overlap / disjoint / undecided — with constraint propagation,
// instead of enumerating geometric coordinates.
//
// Temporal precedence constraints (the paper's extension) are handled on
// designated "ordered" dimensions: disjoint pairs there carry an
// orientation, seeded by the precedence arcs and closed under the path
// (D1) and transitivity (D2) implication rules of Section 4. Orientation
// conflicts prune the search; by Theorem 2 the closure is exact at the
// leaves. On every dimension D1 also runs as Golumbic's Γ forcing
// relation: the engine keeps the implication classes of the decided
// disjoint edges and prunes a state whose disjoint graph can no longer
// be transitively oriented (C1's comparability half).
package core

import (
	"context"
	"fmt"
	"time"

	"fpga3d/internal/obs"
)

// EdgeState is the decision state of one (dimension, pair) variable.
type EdgeState uint8

const (
	// Unknown means the pair is not yet decided in this dimension.
	Unknown EdgeState = iota
	// Overlap means the two boxes' projections intersect in this
	// dimension (a component edge of G_i).
	Overlap
	// Disjoint means the projections do not intersect (an edge of the
	// complement — a comparability edge).
	Disjoint
)

// String renders the state for traces and error messages.
func (s EdgeState) String() string {
	switch s {
	case Overlap:
		return "overlap"
	case Disjoint:
		return "disjoint"
	default:
		return "unknown"
	}
}

// OrientVal is the orientation of a disjoint pair (u, v) with u < v on an
// ordered dimension.
type OrientVal uint8

const (
	// OrientNone means the disjoint pair is not yet oriented.
	OrientNone OrientVal = iota
	// OrientFwd means u's interval lies entirely before v's (u < v).
	OrientFwd
	// OrientRev means v's interval lies entirely before u's.
	OrientRev
)

// Dim describes one packing dimension.
type Dim struct {
	// Cap is the container extent in this dimension.
	Cap int
	// Sizes holds the box extents, indexed by box.
	Sizes []int
	// Ordered marks the dimension as carrying precedence constraints;
	// disjoint pairs on it are oriented and D1/D2 closure applies.
	Ordered bool
	// Hint, when non-nil, holds one position per box — a placement
	// along this dimension that need not fit Cap, such as a heuristic
	// schedule that missed the horizon. A branch on a pair of this
	// dimension tries first the state the hinted intervals have:
	// Overlap if they intersect, Disjoint otherwise. It orders the two
	// children only, so an exhausted search is the same tree with the
	// same Stats, and Options.TimeOverlapFirst does not apply here.
	Hint []int
}

// SeedArc fixes, on an ordered dimension, box From entirely before box
// To. Precedence constraints translate to seed arcs on the time axis.
type SeedArc struct {
	Dim      int
	From, To int
}

// FixedEdge pre-decides the state of one pair in one dimension. The
// FixedS problem variants (start times given) fix the whole time
// dimension this way.
type FixedEdge struct {
	Dim   int
	U, V  int
	State EdgeState
}

// Problem is a d-dimensional orthogonal packing decision problem over n
// boxes, optionally with seed orientations and pre-fixed edges.
type Problem struct {
	N     int
	Dims  []Dim
	Seeds []SeedArc
	Fixed []FixedEdge
}

// Validate checks dimensional consistency of the problem.
func (p *Problem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("core: problem has %d boxes", p.N)
	}
	if len(p.Dims) < 2 {
		return fmt.Errorf("core: problem has %d dimensions; need at least 2", len(p.Dims))
	}
	for i, d := range p.Dims {
		if len(d.Sizes) != p.N {
			return fmt.Errorf("core: dim %d has %d sizes for %d boxes", i, len(d.Sizes), p.N)
		}
		if d.Cap <= 0 {
			return fmt.Errorf("core: dim %d has capacity %d", i, d.Cap)
		}
		for b, s := range d.Sizes {
			if s <= 0 {
				return fmt.Errorf("core: box %d has size %d in dim %d", b, s, i)
			}
			if s > d.Cap {
				return fmt.Errorf("core: box %d (size %d) exceeds capacity %d of dim %d", b, s, d.Cap, i)
			}
		}
		if d.Hint != nil && len(d.Hint) != p.N {
			return fmt.Errorf("core: dim %d has %d hinted positions for %d boxes", i, len(d.Hint), p.N)
		}
		for b, x := range d.Hint {
			if x < 0 {
				return fmt.Errorf("core: box %d has hinted position %d in dim %d", b, x, i)
			}
		}
	}
	for _, a := range p.Seeds {
		if a.Dim < 0 || a.Dim >= len(p.Dims) || !p.Dims[a.Dim].Ordered {
			return fmt.Errorf("core: seed arc on non-ordered dim %d", a.Dim)
		}
		if a.From < 0 || a.From >= p.N || a.To < 0 || a.To >= p.N || a.From == a.To {
			return fmt.Errorf("core: seed arc %d→%d out of range", a.From, a.To)
		}
	}
	for _, f := range p.Fixed {
		if f.Dim < 0 || f.Dim >= len(p.Dims) {
			return fmt.Errorf("core: fixed edge on dim %d out of range", f.Dim)
		}
		if f.U < 0 || f.U >= p.N || f.V < 0 || f.V >= p.N || f.U == f.V {
			return fmt.Errorf("core: fixed edge {%d,%d} out of range", f.U, f.V)
		}
		if f.State == Unknown {
			return fmt.Errorf("core: fixed edge {%d,%d} with unknown state", f.U, f.V)
		}
	}
	return nil
}

// Status is the outcome of a Solve call.
type Status int

const (
	// StatusFeasible means a packing class (hence a packing) was found.
	StatusFeasible Status = iota
	// StatusInfeasible means the search space was exhausted.
	StatusInfeasible
	// StatusNodeLimit means the node budget ran out before a decision.
	StatusNodeLimit
	// StatusTimeLimit means the deadline passed before a decision.
	StatusTimeLimit
	// StatusCanceled means Options.Ctx was canceled before a decision.
	StatusCanceled
)

// String renders the status for logs and CLI output.
func (s Status) String() string {
	switch s {
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusNodeLimit:
		return "node-limit"
	case StatusTimeLimit:
		return "time-limit"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Decided reports whether the status is a definite answer.
func (s Status) Decided() bool { return s == StatusFeasible || s == StatusInfeasible }

// Solution is a feasible packing extracted from a packing class:
// Coords[i][b] is the position of box b along dimension i.
type Solution struct {
	Coords [][]int
}

// Options tunes the engine. The Disable* switches exist for the ablation
// experiments in DESIGN.md §6; production callers leave them false.
type Options struct {
	// NodeLimit bounds the number of search nodes (0 = unlimited).
	NodeLimit int64
	// Deadline aborts the search after this instant (zero = none).
	Deadline time.Time
	// Ctx, when non-nil, is polled on the engine's node cadence (every
	// 256 nodes, alongside the deadline poll); once it is done the
	// search unwinds promptly and Solve returns StatusCanceled with the
	// partial statistics accumulated so far. This is the cancellation
	// path the concurrent optimization drivers use to abandon probes
	// whose answer another probe has made redundant.
	Ctx context.Context

	// Progress, when non-nil, receives a Snapshot of search effort on
	// the engine's node-count cadence — every 256 nodes, piggybacking
	// on the deadline poll, so the untraced hot path pays only a nil
	// check. Callbacks must be fast; they run inside the search loop.
	Progress obs.ProgressFunc
	// ProgressPhase labels emitted snapshots; empty means "search".
	// Callers embedding the engine in a larger pipeline (the solver's
	// three-stage framework) set it to distinguish stages.
	ProgressPhase string

	// DisableC4Rule turns off the induced-chordless-4-cycle propagation
	// (condition C1 during the search; leaves still verify chordality).
	DisableC4Rule bool
	// DisableCliqueRule turns off the C2 heavy-clique conflict check on
	// newly fixed disjoint edges.
	DisableCliqueRule bool
	// DisableCliqueForce turns off the per-node pass that fixes pairs to
	// Overlap when Disjoint would complete an overweight clique.
	DisableCliqueForce bool
	// DisableOrientRules turns off D1/D2 closure during the search —
	// the Γ implication classes (D1) on every dimension and the
	// orientation closure on ordered ones; orientation consistency is
	// then only tested at the leaves (the "black box at the leaves"
	// strawman of Section 4.2).
	DisableOrientRules bool
	// TimeOverlapFirst controls value ordering on ordered dimensions
	// without a Dim.Hint: when true (default behaviour is set by the
	// solver), Overlap is tried before Disjoint on the time axis.
	TimeOverlapFirst bool

	// ReferenceRules selects the pre-optimization straight-line rule
	// implementations (per-call allocation, no version-keyed skips, no
	// C4 viability or candidate filter, recomputed branch scores) in
	// place of the incremental fast paths. Both paths are bit-identical
	// by contract: same Status, same witness placement, and the same
	// Stats — node counts included. The knob exists for the differential
	// tests and for cmd/fpgabench's -compare-ref equality gate;
	// production callers leave it false.
	ReferenceRules bool

	// Workers, when greater than 1, explores the branch-and-bound tree
	// itself on a work-stealing pool of that many goroutines: idle
	// workers receive cloned engine states for not-yet-explored sibling
	// subtrees ("donations"), and the first definitive answer stops the
	// pool. The parallel path is answer-equal to the sequential one —
	// same Status and, when feasible, a valid witness — but not
	// bit-identical: Stats are the sum over all shards and depend on
	// scheduling (see Stats.Steals). Workers <= 1 (including 0) keeps
	// the fully deterministic sequential search. Incompatible with
	// ReferenceRules only in the sense that the reference path is never
	// parallelized; Workers is ignored when ReferenceRules is set.
	Workers int

	// OnSolution, when non-nil and Workers > 1, is invoked exactly once
	// with the winning solution of a parallel search, from the worker
	// goroutine that found it, before Solve returns. The strategy layer
	// uses it to broadcast the witness into its incumbent store so
	// concurrent sweep probes can prune. The hook must be fast and
	// concurrency-safe; the sequential path ignores it (callers see the
	// solution in the Result).
	OnSolution func(*Solution)
}

// Result bundles the outcome of a Solve call.
type Result struct {
	Status   Status
	Solution *Solution // non-nil iff Status == StatusFeasible
	Stats    Stats
}
