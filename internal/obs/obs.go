// Package obs is the observability layer of the solver stack: live
// progress snapshots from the branch-and-bound engine, a structured
// JSONL event tracer for offline replay and analysis of whole
// optimization runs, and a lightweight expvar-style metrics registry
// for long-running processes.
//
// The package is dependency-free (standard library only) and sits
// below every other internal package: core invokes the progress hook,
// solver emits trace events and bumps metrics, and cmd/fpgaplace wires
// all three to flags. All entry points are nil-safe — a nil *Tracer or
// nil *Registry turns the corresponding instrumentation into no-ops,
// so call sites need no guards and the untraced hot path stays free of
// branches beyond a single nil check.
package obs

import "time"

// Phase names the stage of the three-stage framework (Section 3.1 of
// the paper) a snapshot or trace event originates from.
const (
	// PhaseBounds is stage 1: fast lower bounds trying to disprove
	// feasibility.
	PhaseBounds = "bounds"
	// PhaseHeuristic is stage 2: the greedy placer trying to prove
	// feasibility.
	PhaseHeuristic = "heuristic"
	// PhaseSearch is stage 3: the exact branch-and-bound over packing
	// classes.
	PhaseSearch = "search"
	// PhaseAnneal is the randomized annealing placer: stage 2½ of the
	// Anneal strategy and the incumbent producer of anytime runs.
	PhaseAnneal = "anneal"
)

// Snapshot is a point-in-time view of search effort, delivered to a
// ProgressFunc on the engine's node-count cadence (every 256 nodes,
// piggybacking on the deadline poll) and at stage transitions.
type Snapshot struct {
	// Phase is the stage the solver is in ("bounds", "heuristic",
	// "search"). Stage-transition snapshots carry zero counters.
	Phase string
	// Nodes is the number of branch-and-bound nodes expanded so far in
	// the current search.
	Nodes int64
	// NodesPerSec is the average expansion rate since the search began.
	NodesPerSec float64
	// MaxDepth is the deepest tree level reached.
	MaxDepth int
	// Elapsed is the wall-clock time since the search began.
	Elapsed time.Duration
	// Conflicts holds the per-rule conflict counters keyed by rule name
	// ("c3", "size", "clique", "area", "c4", "orient", "gamma").
	// The map is freshly built per snapshot; callbacks may retain it.
	Conflicts map[string]int64

	// Anytime marks snapshots of an anytime run that carry incumbent
	// state in the three fields below; when false those fields are
	// meaningless (zero).
	Anytime bool
	// BestMakespan is the best-known incumbent makespan (the upper
	// bound); 0 while no witness exists yet.
	BestMakespan int
	// LowerBound is the best proven makespan lower bound so far.
	LowerBound int
	// Gap is the relative optimality gap (BestMakespan −
	// LowerBound)/BestMakespan: non-increasing over a run, exactly 0
	// once the incumbent is proven optimal.
	Gap float64
}

// TotalConflicts sums the per-rule conflict counters.
func (s Snapshot) TotalConflicts() int64 {
	var t int64
	for _, v := range s.Conflicts {
		t += v
	}
	return t
}

// ProgressFunc receives search progress snapshots. Implementations
// must be fast — the engine invokes them from the hot search loop —
// and safe for concurrent use if the same hook is shared by solver
// calls running in multiple goroutines.
type ProgressFunc func(Snapshot)
