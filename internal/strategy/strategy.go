// Package strategy decides the paper's orthogonal packing questions
// with its three-stage recipe (Section 3.1): fast lower bounds
// (stage 1), the greedy list-scheduling heuristic (stage 2), and exact
// branch-and-bound over packing classes (stage 3) only when both fail.
//
// One Pipeline runs every probe through the same tiers in a fixed
// order: a canceled-context exit, incumbent dominance, bounds, greedy,
// annealing (only when the greedy placer fits the chip but misses the
// time budget) and search. Each tier is an adapter over its package
// (internal/bounds, internal/heur, internal/core), and every feasible
// answer is verified before it leaves. The strategy names are rows of
// one preset table that switch optional tiers on:
//
//   - staged runs bounds, greedy and search, bit-identical to the
//     historical pipeline (same decisions, witnesses, engine
//     statistics and trace events). It is the default.
//   - portfolio adds incumbent dominance and records every greedy and
//     search witness, so one sweep step seeds the next.
//   - anneal adds incumbent dominance and the annealing placer, whose
//     witnesses it records.
//
// A fixed-schedule question (Problem.FixedStarts) takes the same tiers
// on its two-dimensional shape under every preset. The probes of one
// optimization run share an Incumbents store, so the heuristic's
// minimum-makespan placement for a chip is computed once and reused by
// every probe on that chip (the follow-up paper "Higher-Dimensional
// Packing with Order Constraints" treats the stages as exactly this
// kind of interchangeable component).
package strategy

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Decision is the three-valued outcome of a decision problem.
type Decision int

const (
	// Unknown means the solver hit a node or time limit.
	Unknown Decision = iota
	// Feasible means a placement was found (and verified).
	Feasible
	// Infeasible means no placement exists.
	Infeasible
)

// String names the decision: "feasible", "infeasible" or "unknown".
func (d Decision) String() string {
	switch d {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// Strategy names accepted by Parse and the solver's Options.Strategy
// knob (the empty string selects NameStaged).
const (
	// NameStaged selects the sequential short-circuit pipeline.
	NameStaged = "staged"
	// NamePortfolio selects incumbent sharing across probes.
	NamePortfolio = "portfolio"
	// NameAnneal selects the staged pipeline with incumbent dominance
	// and a randomized annealing placer between the greedy heuristic
	// and the exact search.
	NameAnneal = "anneal"
)

// preset is one named choice of the pipeline's optional tiers.
type preset struct {
	name string
	// dominance answers a probe from a stored witness that fits its
	// container.
	dominance bool
	// anneal runs the annealing placer when the greedy placer fits the
	// chip but misses the time budget.
	anneal bool
	// record stores greedy and search witnesses in the incumbent store.
	record bool
}

// presets is the table of strategy names; the first row is the
// default.
var presets = []preset{
	{name: NameStaged},
	{name: NamePortfolio, dominance: true, record: true},
	{name: NameAnneal, dominance: true, anneal: true},
}

// lookup returns the preset for name ("" selects the default).
func lookup(name string) (preset, bool) {
	if name == "" {
		return presets[0], true
	}
	for _, ps := range presets {
		if ps.name == name {
			return ps, true
		}
	}
	return preset{}, false
}

// Valid reports whether name selects a known strategy; the empty
// string is valid and means the default (staged).
func Valid(name string) bool {
	_, ok := lookup(name)
	return ok
}

// Names lists the accepted non-empty strategy names.
func Names() []string {
	names := make([]string, len(presets))
	for i, ps := range presets {
		names[i] = ps.name
	}
	return names
}

// Parse resolves a strategy name ("", NameStaged, NamePortfolio or
// NameAnneal) to the pipeline running that preset over env.
func Parse(name string, env *Env) (*Pipeline, error) {
	ps, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("strategy: unknown strategy %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return &Pipeline{env: env, preset: ps}, nil
}

// Problem is one orthogonal packing question: does instance In fit
// container C under the precedence order Order?
type Problem struct {
	// In is the instance; Order must be its precedence order.
	In    *model.Instance
	C     model.Container
	Order *model.Order
	// FixedStarts, when non-nil, prescribes every task's start time
	// (the FixedS problem variants): every preset then runs the
	// two-dimensional bounds, the fixed-start placer and the spatial
	// search (see Pipeline.Solve).
	FixedStarts []int
}

// Result is the outcome of one orthogonal packing decision.
type Result struct {
	Decision  Decision
	Placement *model.Placement // non-nil iff Decision == Feasible
	// DecidedBy names the stage that settled the question:
	// "bound: <name>", "heuristic", "anneal", "incumbent", or
	// "search".
	DecidedBy string
	Stats     core.Stats
	// Stages breaks Elapsed down into per-stage wall-clock durations.
	Stages  StageTimings
	Elapsed time.Duration
}

// Env carries the run-scoped machinery a pipeline needs: engine
// options for stage 3, observability sinks, and the shared incumbent
// store. The solver package builds an Env from its Options for each
// probe; the probes of one optimization run share its Inc.
type Env struct {
	// SearchOpts builds the engine options for a stage-3 search under
	// ctx (limits, ablation switches, progress/trace/metric chaining).
	SearchOpts func(ctx context.Context) core.Options
	// SkipBounds disables stage 1, SkipHeuristic stage 2.
	SkipBounds    bool
	SkipHeuristic bool
	// Progress receives stage-transition snapshots (may be nil).
	Progress obs.ProgressFunc
	// Trace receives structured JSONL events (may be nil).
	Trace *obs.Tracer
	// Metrics accumulates counters across solves (may be nil).
	Metrics *obs.Registry
	// Inc is the incumbent store shared by all probes of one
	// optimization run. It is only meaningful for a single
	// instance; nil disables sharing (every probe recomputes).
	Inc *Incumbents
	// AnnealSeed seeds the randomized annealing placer (anneal preset
	// and the anytime tier); zero means seed 1. The annealer
	// is deterministic per seed.
	AnnealSeed int64
}
