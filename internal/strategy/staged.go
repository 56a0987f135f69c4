package strategy

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Staged is the paper's sequential short-circuit pipeline: stage 1
// tries to disprove feasibility with fast lower bounds, stage 2 tries
// to find a feasible packing with the greedy heuristic, and only then
// does stage 3 run the branch-and-bound search over packing classes.
// It is the default strategy and reproduces the historical solver
// pipeline bit for bit: decisions, witnesses, engine statistics and
// trace events are identical.
type Staged struct {
	env *Env
}

// NewStaged returns the sequential short-circuit strategy over env.
func NewStaged(env *Env) *Staged { return &Staged{env: env} }

// Name returns NameStaged.
func (s *Staged) Name() string { return NameStaged }

// Solve runs bounds → heuristic → search with short-circuit
// evaluation. A nil error with Decision Unknown means a limit or
// cancellation.
func (s *Staged) Solve(ctx context.Context, p *Problem) (*Result, error) {
	if p.FixedStarts != nil {
		return s.env.solveFixed(ctx, p, nil)
	}
	e := s.env
	start := time.Now()
	res := &Result{}
	ctx, osp := e.oppSpan(ctx, p)
	defer func() { e.endOPPSpan(osp, res) }()
	e.Metrics.Counter("opp.calls").Inc()
	e.Trace.Emit("opp_start", map[string]any{
		"instance": p.In.Name, "n": p.In.N(), "W": p.C.W, "H": p.C.H, "T": p.C.T,
	})

	// A probe whose context is already dead spends no effort at all;
	// the racing drivers rely on this to discard queued probes cheaply,
	// and CLI deadlines rely on it to cut off between probes.
	if ctx.Err() != nil {
		res.Decision = Unknown
		res.DecidedBy = "canceled"
		res.Elapsed = time.Since(start)
		e.Metrics.Counter("opp.decided_by.canceled").Inc()
		e.traceOPPEnd(res, nil)
		return res, nil
	}

	// Stage 1: lower bounds.
	if !e.SkipBounds {
		e.notifyPhase(obs.PhaseBounds)
		ssp := e.stageSpan(ctx, obs.PhaseBounds)
		s0 := time.Now()
		bad, why := bounds.OPPInfeasible(p.In, p.C, p.Order)
		res.Stages.Bounds = time.Since(s0)
		ssp.End()
		if bad {
			res.Decision = Infeasible
			res.DecidedBy = "bound: " + why
			res.Elapsed = time.Since(start)
			e.Metrics.Counter("opp.decided_by.bounds").Inc()
			e.traceOPPEnd(res, map[string]any{"bound": why})
			return res, nil
		}
		e.Trace.Emit("stage", map[string]any{
			"phase": obs.PhaseBounds, "outcome": "pass", "elapsed_ms": MS(res.Stages.Bounds),
		})
	}
	// Stage 2: greedy placer. The minimum-makespan placement for this
	// chip footprint is memoized in the incumbent store (when one is
	// attached): the list scheduler's slot scan is horizon-truncated,
	// so the probe at time budget T succeeds iff T ≥ mk, and then with
	// exactly the memoized placement — sweeps over T on one chip share
	// a single stage-2 computation without changing any answer.
	if !e.SkipHeuristic {
		e.notifyPhase(obs.PhaseHeuristic)
		ssp := e.stageSpan(ctx, obs.PhaseHeuristic)
		s0 := time.Now()
		hp, mk, hok := e.heurWitness(p)
		res.Stages.Heuristic = time.Since(s0)
		ssp.End()
		if hok && mk <= p.C.T {
			pl := hp.Clone()
			if err := pl.Verify(p.In, p.C, p.Order); err != nil {
				return nil, fmt.Errorf("solver: heuristic produced invalid placement: %w", err)
			}
			res.Decision = Feasible
			res.Placement = pl
			res.DecidedBy = "heuristic"
			res.Elapsed = time.Since(start)
			e.Metrics.Counter("opp.decided_by.heuristic").Inc()
			e.traceOPPEnd(res, nil)
			return res, nil
		}
		e.Trace.Emit("stage", map[string]any{
			"phase": obs.PhaseHeuristic, "outcome": "miss", "elapsed_ms": MS(res.Stages.Heuristic),
		})
	}
	// Stage 3: packing-class branch and bound.
	return e.solveSearch(ctx, p, res, start, nil)
}

// searchOpts returns the stage-3 engine options for problem p. When the
// engine will run a parallel (work-stealing) search and an incumbent
// store is attached, the pool's OnSolution hook broadcasts the winning
// witness into the store the moment a worker finds it — so concurrent
// sweep probes can already prune on it while this probe is still
// assembling its result. The hook verifies before recording; an invalid
// witness is dropped here and surfaces as an error on the main path.
func (e *Env) searchOpts(ctx context.Context, p *Problem) core.Options {
	co := e.SearchOpts(ctx)
	if co.Workers > 1 && e.Inc != nil && p.FixedStarts == nil {
		in, c, order, inc := p.In, p.C, p.Order, e.Inc
		co.OnSolution = func(sol *core.Solution) {
			pl := SolutionToPlacement(sol)
			if pl.Verify(in, c, order) == nil {
				inc.RecordWitness(in, pl, "search-parallel")
			}
		}
	}
	return co
}

// solveSearch runs stage 3 on a prepared result (stage timings of the
// earlier stages already recorded) and finishes the trace bracket.
// extra is merged into the opp_end event.
func (e *Env) solveSearch(ctx context.Context, p *Problem, res *Result, start time.Time, extra map[string]any) (*Result, error) {
	e.notifyPhase(obs.PhaseSearch)
	e.Trace.Emit("stage", map[string]any{"phase": obs.PhaseSearch})
	ssp := e.stageSpan(ctx, obs.PhaseSearch)
	s0 := time.Now()
	if !p.C.Fits(p.In) {
		// The engine treats a task exceeding the container as a
		// programmer error; stage 1 screens it unless SkipBounds is set,
		// so the search screens it itself.
		ssp.End()
		res.Stages.Search = time.Since(s0)
		res.Elapsed = time.Since(start)
		res.Decision = Infeasible
		res.DecidedBy = "search"
		e.Metrics.Counter("opp.decided_by.search").Inc()
		e.traceOPPEnd(res, extra)
		return res, nil
	}
	prob := BuildProblem(p.In, p.C, p.Order, p.FixedStarts)
	r := core.Solve(prob, e.searchOpts(ctx, p))
	res.Stages.Search = time.Since(s0)
	ssp.End()
	res.Stats = r.Stats
	res.Elapsed = time.Since(start)
	e.Metrics.Counter(obs.MetricSearchNodes).Add(r.Stats.Nodes)
	e.Metrics.Counter(obs.MetricSearchPropagations).Add(r.Stats.Propagations)
	switch r.Status {
	case core.StatusFeasible:
		pl := SolutionToPlacement(r.Solution)
		if p.FixedStarts != nil {
			// The engine realizes some schedule with the same component
			// graph and orientation; the prescribed start times are
			// another realization of it, so the spatial coordinates
			// carry over.
			pl.S = append([]int(nil), p.FixedStarts...)
		}
		if err := verifyWitness(p, pl); err != nil {
			return nil, fmt.Errorf("solver: search produced invalid placement: %w", err)
		}
		res.Decision = Feasible
		res.Placement = pl
		res.DecidedBy = "search"
		e.Metrics.Counter("opp.decided_by.search").Inc()
	case core.StatusInfeasible:
		res.Decision = Infeasible
		res.DecidedBy = "search"
		e.Metrics.Counter("opp.decided_by.search").Inc()
	case core.StatusCanceled:
		res.Decision = Unknown
		res.DecidedBy = "canceled"
		e.Metrics.Counter("opp.decided_by.canceled").Inc()
	default:
		res.Decision = Unknown
		res.DecidedBy = "limit"
		e.Metrics.Counter("opp.decided_by.limit").Inc()
	}
	e.traceOPPEnd(res, extra)
	return res, nil
}

// solveFixed decides the FixedS variant, for every strategy: with every
// start time prescribed the question collapses to the two spatial
// dimensions (Section 4 of the paper), and it runs the same
// bounds → heuristic → search short circuit as Staged on that shape.
// Stage 1 packs the footprints of the tasks active at each start time
// against the chip (bounds.FixedScheduleInfeasible), stage 2 pins every
// start and places bottom-left in x and y (heur.PlaceFixed), and only
// then does the engine search the spatial dimensions. Stored
// incumbents and the annealer are not consulted: their witnesses do not
// keep the prescribed starts. The caller has already validated the
// schedule. extra is merged into the opp_end event.
func (e *Env) solveFixed(ctx context.Context, p *Problem, extra map[string]any) (*Result, error) {
	start := time.Now()
	res := &Result{}
	ctx, osp := e.oppSpan(ctx, p)
	defer func() { e.endOPPSpan(osp, res) }()
	e.Metrics.Counter("opp.calls").Inc()
	e.Trace.Emit("opp_start", map[string]any{
		"instance": p.In.Name, "n": p.In.N(), "W": p.C.W, "H": p.C.H, "T": p.C.T, "fixed_schedule": true,
	})
	if ctx.Err() != nil {
		res.Decision = Unknown
		res.DecidedBy = "canceled"
		res.Elapsed = time.Since(start)
		e.Metrics.Counter("opp.decided_by.canceled").Inc()
		e.traceOPPEnd(res, extra)
		return res, nil
	}

	if !e.SkipBounds {
		e.notifyPhase(obs.PhaseBounds)
		ssp := e.stageSpan(ctx, obs.PhaseBounds)
		s0 := time.Now()
		bad, why := bounds.FixedScheduleInfeasible(p.In, p.C, p.FixedStarts)
		res.Stages.Bounds = time.Since(s0)
		ssp.End()
		if bad {
			res.Decision = Infeasible
			res.DecidedBy = "bound: " + why
			res.Elapsed = time.Since(start)
			e.Metrics.Counter("opp.decided_by.bounds").Inc()
			f := map[string]any{"bound": why}
			maps.Copy(f, extra)
			e.traceOPPEnd(res, f)
			return res, nil
		}
		e.Trace.Emit("stage", map[string]any{
			"phase": obs.PhaseBounds, "outcome": "pass", "elapsed_ms": MS(res.Stages.Bounds),
		})
	}
	if !e.SkipHeuristic {
		e.notifyPhase(obs.PhaseHeuristic)
		ssp := e.stageSpan(ctx, obs.PhaseHeuristic)
		s0 := time.Now()
		pl, ok := heur.PlaceFixed(p.In, p.C.W, p.C.H, p.FixedStarts)
		res.Stages.Heuristic = time.Since(s0)
		ssp.End()
		if ok {
			if err := verifyWitness(p, pl); err != nil {
				return nil, fmt.Errorf("solver: fixed-schedule heuristic produced invalid placement: %w", err)
			}
			res.Decision = Feasible
			res.Placement = pl
			res.DecidedBy = "heuristic"
			res.Elapsed = time.Since(start)
			e.Metrics.Counter("opp.decided_by.heuristic").Inc()
			e.traceOPPEnd(res, extra)
			return res, nil
		}
		e.Trace.Emit("stage", map[string]any{
			"phase": obs.PhaseHeuristic, "outcome": "miss", "elapsed_ms": MS(res.Stages.Heuristic),
		})
	}
	return e.solveSearch(ctx, p, res, start, extra)
}

// verifyWitness checks a witness for p; a fixed-schedule witness must
// also keep the prescribed start times.
func verifyWitness(p *Problem, pl *model.Placement) error {
	if p.FixedStarts != nil && !slices.Equal(pl.S, p.FixedStarts) {
		return fmt.Errorf("start times %v differ from the prescribed %v", pl.S, p.FixedStarts)
	}
	return pl.Verify(p.In, p.C, p.Order)
}
