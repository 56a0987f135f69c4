// Package strategy turns the paper's three-stage recipe — fast lower
// bounds (stage 1), greedy list-scheduling heuristic (stage 2), exact
// branch-and-bound over packing classes (stage 3) — into first-class,
// composable solve strategies.
//
// Historically the staging was hard-wired into internal/solver's OPP
// driver, and every optimization sweep re-derived its own slice of it.
// Here each stage is an adapter over the corresponding package
// (internal/bounds, internal/heur, internal/core), and two combinators
// compose them:
//
//   - Staged runs the stages sequentially with short-circuit
//     evaluation — bit-identical to the historical pipeline (same
//     decisions, witnesses, engine statistics and trace events).
//   - Portfolio shares incumbents across probes: a feasible witness
//     recorded by one probe answers later dominated probes outright,
//     and with more than one worker the cheap prover (bounds +
//     heuristic) races the exact search, first definitive answer wins.
//
// Strategies of one optimization run share an Incumbents store, so the
// heuristic's minimum-makespan placement for a chip is computed once
// and reused by every probe on that chip, and feasibility answers from
// one sweep step seed the next (the follow-up paper "Higher-Dimensional
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
	// NamePortfolio selects incumbent-sharing portfolio solving.
	NamePortfolio = "portfolio"
	// NameAnneal selects the staged pipeline with a randomized
	// annealing placer between the greedy heuristic and the exact
	// search.
	NameAnneal = "anneal"
)

// Valid reports whether name selects a known strategy; the empty
// string is valid and means the default (staged).
func Valid(name string) bool {
	switch name {
	case "", NameStaged, NamePortfolio, NameAnneal:
		return true
	}
	return false
}

// Names lists the accepted non-empty strategy names.
func Names() []string { return []string{NameStaged, NamePortfolio, NameAnneal} }

// Parse resolves a strategy name ("", NameStaged, NamePortfolio or
// NameAnneal) against an environment.
func Parse(name string, env *Env) (Strategy, error) {
	switch name {
	case "", NameStaged:
		return NewStaged(env), nil
	case NamePortfolio:
		return NewPortfolio(env), nil
	case NameAnneal:
		return NewAnneal(env), nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// Problem is one orthogonal packing question: does instance In fit
// container C under the precedence order Order?
type Problem struct {
	// In is the instance; Order must be its precedence order.
	In    *model.Instance
	C     model.Container
	Order *model.Order
	// FixedStarts, when non-nil, prescribes every task's start time
	// (the FixedS problem variants): every strategy then runs the
	// two-dimensional bounds, the fixed-start placer and the spatial
	// search (see Env.solveFixed).
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

// Strategy decides orthogonal packing problems by composing the
// three stages of the paper's framework.
type Strategy interface {
	// Name returns the strategy's registry name.
	Name() string
	// Solve decides the problem. A nil error with Decision Unknown
	// means a node/time limit or cancellation, not a failure.
	Solve(ctx context.Context, p *Problem) (*Result, error)
}

// Env carries the run-scoped machinery a strategy needs: engine
// options for stage 3, observability sinks, and the shared incumbent
// store. The solver package builds one Env per optimization run from
// its Options.
type Env struct {
	// SearchOpts builds the engine options for a stage-3 search under
	// ctx (limits, ablation switches, progress/trace/metric chaining).
	SearchOpts func(ctx context.Context) core.Options
	// SkipBounds disables stage 1, SkipHeuristic stage 2.
	SkipBounds    bool
	SkipHeuristic bool
	// Workers bounds intra-solve concurrency; Portfolio races its
	// prover against the search only when Workers > 1.
	Workers int
	// Progress receives stage-transition snapshots (may be nil).
	Progress obs.ProgressFunc
	// Trace receives structured JSONL events (may be nil).
	Trace *obs.Tracer
	// Metrics accumulates counters across solves (may be nil).
	Metrics *obs.Registry
	// Inc is the incumbent store shared by all strategy invocations of
	// one optimization run. It is only meaningful for a single
	// instance; nil disables sharing (every probe recomputes).
	Inc *Incumbents
	// AnnealSeed seeds the randomized annealing placer (Anneal
	// strategy and the anytime tier); zero means seed 1. The annealer
	// is deterministic per seed.
	AnnealSeed int64
}

// notifyPhase delivers a stage-transition snapshot to the Progress
// hook, so live tickers can show which stage a solve is in even before
// the first node-cadence snapshot arrives.
func (e *Env) notifyPhase(phase string) {
	if e.Progress != nil {
		e.Progress(obs.Snapshot{Phase: phase})
	}
}

// oppSpan opens the "opp" span of one probe — a child of whatever span
// the caller's context carries (the optimization driver's, which in
// fpgad descends from the request span), rooted in e.Trace otherwise.
// With no tracer reachable it costs one context lookup and returns a
// nil span.
func (e *Env) oppSpan(ctx context.Context, p *Problem) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, e.Trace, "opp")
	if sp != nil {
		sp.SetAttr("W", p.C.W)
		sp.SetAttr("H", p.C.H)
		sp.SetAttr("T", p.C.T)
	}
	return ctx, sp
}

// endOPPSpan finishes a probe's span with its outcome.
func (e *Env) endOPPSpan(sp *obs.Span, res *Result) {
	if sp == nil {
		return
	}
	sp.SetAttr("decision", res.Decision.String())
	sp.SetAttr("decided_by", res.DecidedBy)
	sp.End()
}

// stageSpan opens a "stage" span for one stage of the three-stage
// framework, parented to the probe span in ctx (nil when untraced).
func (e *Env) stageSpan(ctx context.Context, phase string) *obs.Span {
	_, sp := obs.StartSpan(ctx, nil, "stage")
	sp.SetAttr("phase", phase)
	return sp
}

// heurWitness returns the greedy minimum-makespan placement for the
// problem's chip, memoized in the incumbent store when one is
// attached. ok is false only if some task does not fit the chip
// spatially. The returned placement is shared — callers must Clone
// before exposing or mutating it.
func (e *Env) heurWitness(p *Problem) (*model.Placement, int, bool) {
	if e.Inc == nil {
		return computeMinMakespan(p.In, p.C.W, p.C.H, p.Order)
	}
	pl, mk, ok, hit := e.Inc.MinMakespan(p.In, p.C.W, p.C.H, p.Order)
	if hit {
		e.Metrics.Counter(obs.MetricStrategyHeurHits).Inc()
	} else {
		e.Metrics.Counter(obs.MetricStrategyHeurComputes).Inc()
	}
	return pl, mk, ok
}

// traceOPPEnd records the outcome of one OPP decision: an opp_end
// trace event (with full engine stats when the search ran) and the
// per-decision metric counter.
func (e *Env) traceOPPEnd(res *Result, extra map[string]any) {
	e.Metrics.Counter("opp." + res.Decision.String()).Inc()
	if e.Trace == nil {
		return
	}
	f := map[string]any{
		"decision":   res.Decision.String(),
		"decided_by": res.DecidedBy,
		"nodes":      res.Stats.Nodes,
		"elapsed_ms": MS(res.Elapsed),
		"stages_ms":  StagesMS(res.Stages),
	}
	if res.DecidedBy == "search" || res.DecidedBy == "limit" {
		f["stats"] = res.Stats
	}
	for k, v := range extra {
		f[k] = v
	}
	e.Trace.Emit("opp_end", f)
}
