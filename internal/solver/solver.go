// Package solver orchestrates the paper's three-stage framework
// (Section 3.1) around the packing-class engine:
//
//  1. try to disprove feasibility with fast lower bounds,
//  2. try to find a feasible packing with a fast heuristic,
//  3. only then run the branch-and-bound search over packing classes.
//
// On top of the OPP decision procedure it provides the optimization
// drivers of the paper: MinT&FindS (strip packing / minimal makespan),
// MinA&FindS (base minimization / minimal square chip), the FixedS
// variants with prescribed start times, and the Pareto front of
// (chip size, execution time) trade-offs shown in Figure 7.
package solver

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/strategy"
)

// Decision is the three-valued outcome of a decision problem.
type Decision = strategy.Decision

// Decision values, re-exported from the strategy layer.
const (
	// Unknown means the solver hit a node or time limit.
	Unknown = strategy.Unknown
	// Feasible means a placement was found (and verified).
	Feasible = strategy.Feasible
	// Infeasible means no placement exists.
	Infeasible = strategy.Infeasible
)

// Options configures the solver. The zero value enables every stage and
// rule with no search limits.
type Options struct {
	// NodeLimit bounds the branch-and-bound nodes per OPP call
	// (0 = unlimited).
	NodeLimit int64
	// TimeLimit bounds the wall time per OPP call (0 = unlimited).
	TimeLimit time.Duration

	// Workers sets the parallelism budget. Parallelism is opt-in: 0
	// (the zero value), 1 and negative values run everything
	// sequentially, and only Workers > 1 spends goroutines, at two
	// levels that never multiply:
	//
	// Sweep racing. The optimization drivers MinTime, MinBase,
	// MinBaseFixedSchedule and ParetoFront (and their Ctx variants)
	// race up to Workers of their OPP decisions concurrently, each on a
	// sequential engine, so a sweep uses at most Workers goroutines in
	// total. The decisions are independent certificates, so racing
	// matches the sequential answer — the optimum and the witness
	// placement at the optimum — whenever no probe hits a node or time
	// limit. When one does, a race may decide values the sequential
	// sweep gives up before; either way a partial result carries the
	// best proven pair (Value and BestBound). Within a probe every
	// strategy preset runs its tiers in order, whatever Workers is.
	//
	// Intra-probe work stealing. Every other decision — SolveOPP,
	// FeasibleFixedSchedule, SolveMultiChip, and each probe of MinArea,
	// MinChips, MinTimeMultiChip, the rotation sweeps and the anytime
	// refinement, which run their probes one at a time — explores its
	// one branch-and-bound tree on a work-stealing pool of Workers
	// engine clones (core.Options.Workers). The verdict and the witness
	// validity are unchanged, but the statistics become the sum over
	// shards (core.Stats.Steals counts the hand-offs) and the specific
	// witness found may vary between runs.
	//
	// Racing pays only when the sweep's probes are expensive: on the
	// paper's benchmarks the bounds and the greedy placer settle every
	// probe in well under a millisecond, and racing them costs more in
	// speculative probes and goroutine hand-offs than it saves.
	Workers int

	// SkipBounds disables stage 1 (lower bounds).
	SkipBounds bool
	// SkipHeuristic disables stage 2 (the greedy placer).
	SkipHeuristic bool

	// DisableC4Rule, DisableHoleRule, DisableCliqueRule,
	// DisableCliqueForce and DisableOrientRules are forwarded to the
	// engine (ablations).
	DisableC4Rule      bool
	DisableHoleRule    bool
	DisableCliqueRule  bool
	DisableCliqueForce bool
	DisableOrientRules bool
	// TimeDisjointFirst flips the engine's value ordering on the time
	// axis to try Disjoint before Overlap.
	TimeDisjointFirst bool

	// Strategy selects the preset of the stage pipeline every OPP
	// decision runs: "" or "staged" (the default — sequential
	// short-circuit, bit-identical to the historical pipeline),
	// "portfolio" (incumbent sharing across the probes of an
	// optimization run: dominated probes are answered by stored
	// witnesses and sweeps are seeded by previous answers), or
	// "anneal" (the staged pipeline with a randomized annealing placer
	// between the greedy heuristic and the exact search; deterministic
	// per AnnealSeed). Unknown names are rejected with an error by
	// every entry point. See internal/strategy.
	Strategy string

	// Anytime enables the anytime tier for MinTime (mode spp): after
	// the greedy upper bound, a randomized annealing placer tightens
	// the incumbent (streaming each improvement through OnImprovement
	// and the Progress hook), then the exact refinement runs the binary
	// search, which raises the proven lower bound with every
	// infeasibility proof and lowers the incumbent with every witness —
	// so the optimality gap reported along the way is non-increasing
	// and reaches 0 exactly when the run proves its incumbent optimal.
	// The final answer equals the staged pipeline's (same monotone
	// predicate, same interval convergence); only the path there
	// differs. Other modes ignore the flag.
	Anytime bool
	// AnnealSeed seeds the randomized annealing placer used by the
	// "anneal" strategy and by Anytime runs; zero means seed 1. The
	// annealer is deterministic per seed.
	AnnealSeed int64
	// OnImprovement, when non-nil, receives one AnytimeUpdate per
	// incumbent or bound improvement of an Anytime MinTime run,
	// including a Final update when optimality is proven. Called
	// synchronously from the solve goroutine; implementations must be
	// fast and must not mutate the carried placement.
	OnImprovement func(AnytimeUpdate)
	// ReferenceRules runs the engine on its pre-optimization reference
	// rule implementations (see core.Options.ReferenceRules). Results
	// are bit-identical to the default fast paths, only slower; the
	// knob exists for differential testing and for cmd/fpgabench's
	// -compare-ref equality gate.
	ReferenceRules bool

	// Progress, when non-nil, receives live snapshots: one at every
	// stage transition and one per 256 branch-and-bound nodes during
	// the search. Shared across all OPP calls of an optimization run.
	Progress obs.ProgressFunc
	// Trace, when non-nil, receives structured JSONL events (solve
	// start/end, stage transitions, per-probe outcomes, incumbents,
	// final stats) so a whole run can be replayed and analyzed offline.
	Trace *obs.Tracer
	// Metrics, when non-nil, accumulates counters and gauges across
	// OPP calls (opp.calls, opp.feasible, opp.decided_by.*,
	// search.nodes, …). Safe to share between concurrent solves.
	Metrics *obs.Registry

	// inc is the per-run incumbent store shared by every probe of one
	// optimization run. Exported entry points attach a fresh store to
	// their local Options copy (withRun), so a caller sharing one
	// Options value across goroutines never shares a store across
	// instances or runs.
	inc *strategy.Incumbents
}

// withRun validates the strategy selection and attaches a fresh
// incumbent store for one optimization run. Every exported entry point
// calls it on its local Options copy.
func (o Options) withRun() (Options, error) {
	if err := o.validateStrategy(); err != nil {
		return o, err
	}
	if o.inc == nil {
		o.inc = strategy.NewIncumbents()
	}
	return o, nil
}

// validateStrategy checks the strategy name without attaching an
// incumbent store. Entry points whose probes run on cloned,
// re-oriented instances (the rotation sweeps) use this instead of
// withRun: a store keyed by chip footprint must never be shared
// across different oriented instances, so each per-orientation
// SolveOPPCtx call attaches its own fresh store.
func (o Options) validateStrategy() error {
	if !strategy.Valid(o.Strategy) {
		return fmt.Errorf("solver: unknown strategy %q (valid: %s)", o.Strategy, strings.Join(strategy.Names(), ", "))
	}
	return nil
}

// pipeline resolves the configured strategy preset over this run's
// environment. The zero value selects the staged preset, the
// historical three-stage pipeline.
func (o Options) pipeline() (*strategy.Pipeline, error) {
	return strategy.Parse(o.Strategy, &strategy.Env{
		SearchOpts:    o.searchOptions,
		SkipBounds:    o.SkipBounds,
		SkipHeuristic: o.SkipHeuristic,
		Progress:      o.Progress,
		Trace:         o.Trace,
		Metrics:       o.Metrics,
		Inc:           o.inc,
		AnnealSeed:    o.AnnealSeed,
	})
}

func (o Options) coreOptions(ctx context.Context) core.Options {
	c := core.Options{
		Ctx:                ctx,
		NodeLimit:          o.NodeLimit,
		Progress:           o.Progress,
		DisableC4Rule:      o.DisableC4Rule,
		DisableHoleRule:    o.DisableHoleRule,
		DisableCliqueRule:  o.DisableCliqueRule,
		DisableCliqueForce: o.DisableCliqueForce,
		DisableOrientRules: o.DisableOrientRules,
		TimeOverlapFirst:   !o.TimeDisjointFirst,
		ReferenceRules:     o.ReferenceRules,
	}
	// Intra-probe work stealing is opt-in: only an explicit Workers > 1
	// parallelizes a single engine search. Raced sweeps pin their probes
	// to Workers = 1 (sweep.search), so the two levels never multiply.
	if o.Workers > 1 {
		c.Workers = o.Workers
	}
	if o.TimeLimit > 0 {
		c.Deadline = time.Now().Add(o.TimeLimit)
	}
	return c
}

// searchOptions builds the engine options for stage 3. With a tracer
// or metrics registry attached it chains onto the progress hook, so
// the node-cadence snapshots (one per 256 nodes) also land in the
// JSONL record as "progress" events and keep the live gauges of the
// -metrics endpoint current while a search is still running.
func (o Options) searchOptions(ctx context.Context) core.Options {
	c := o.coreOptions(ctx)
	if o.Trace == nil && o.Metrics == nil {
		return c
	}
	prev := c.Progress
	tr, reg := o.Trace, o.Metrics
	c.Progress = func(s obs.Snapshot) {
		if tr != nil {
			tr.Emit("progress", map[string]any{
				"phase": s.Phase, "nodes": s.Nodes, "max_depth": s.MaxDepth,
				"nodes_per_sec": s.NodesPerSec, "conflicts": s.TotalConflicts(),
			})
		}
		reg.Gauge(obs.MetricSearchLiveNodes).Set(s.Nodes)
		reg.Gauge(obs.MetricSearchLiveDepth).Set(int64(s.MaxDepth))
		if prev != nil {
			prev(s)
		}
	}
	return c
}

// notifyPhase delivers a stage-transition snapshot to the Progress
// hook, so live tickers can show which stage a solve is in even before
// the first node-cadence snapshot arrives.
func (o Options) notifyPhase(phase string) {
	if o.Progress != nil {
		o.Progress(obs.Snapshot{Phase: phase})
	}
}

// StageTimings records the wall-clock time one OPP call (or, summed,
// a whole optimization run) spent in each stage of the three-stage
// framework of Section 3.1.
type StageTimings = strategy.StageTimings

// ms converts a duration to fractional milliseconds for trace fields.
func ms(d time.Duration) float64 { return strategy.MS(d) }

// stagesMS renders stage timings as a trace/JSON field.
func stagesMS(s StageTimings) map[string]float64 { return strategy.StagesMS(s) }

// OPPResult is the outcome of one orthogonal packing decision. Its
// canonical definition lives in the strategy layer: Pipeline.Solve
// returns exactly this shape.
type OPPResult = strategy.Result

// SolveOPP decides whether the instance fits into container c while
// satisfying its precedence constraints (problem FeasAT&FindS).
// To solve the unconstrained variant, pass in.WithoutPrec().
func SolveOPP(in *model.Instance, c model.Container, opt Options) (*OPPResult, error) {
	return SolveOPPCtx(context.Background(), in, c, opt)
}

// SolveOPPCtx is SolveOPP under a context: the search polls ctx on its
// node cadence and, once ctx is done, returns promptly with Decision
// Unknown, DecidedBy "canceled" and the partial statistics gathered so
// far. The error stays nil — a canceled probe is an answered question
// ("no longer needed"), not a failure; callers that need the
// distinction check ctx.Err themselves.
func SolveOPPCtx(ctx context.Context, in *model.Instance, c model.Container, opt Options) (*OPPResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order, err := in.Order()
	if err != nil {
		return nil, err
	}
	opt, err = opt.withRun()
	if err != nil {
		return nil, err
	}
	return solveOPP(ctx, &strategy.Problem{In: in, C: c, Order: order}, opt)
}

// solveOPP decides one orthogonal packing question through the
// configured strategy preset (internal/strategy).
func solveOPP(ctx context.Context, p *strategy.Problem, opt Options) (*OPPResult, error) {
	pl, err := opt.pipeline()
	if err != nil {
		return nil, err
	}
	return pl.Solve(ctx, p)
}

// buildProblem translates an instance+container into the engine's
// three-dimensional problem; see strategy.BuildProblem.
func buildProblem(in *model.Instance, c model.Container, order *model.Order, fixedStarts []int) *core.Problem {
	return strategy.BuildProblem(in, c, order, fixedStarts)
}
