package strategy

import (
	"context"
	"fmt"
	"slices"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Pipeline decides orthogonal packing problems by running the tiers
// its preset enables, in a fixed order, with short-circuit evaluation.
// Under the staged preset it reproduces the historical solver pipeline
// bit for bit (decisions, witnesses, engine statistics and trace
// events) on every probe except a node-limited search: where the
// historical pipeline answered Unknown, the annealing backup may
// answer Feasible ("anneal"). The other presets answer the same
// questions, but a probe dominated by a stored witness spends no
// search nodes.
type Pipeline struct {
	env *Env
	preset
}

// Solve decides the problem: a canceled context ends it before any
// work, then incumbent dominance, bounds, greedy, annealing and search
// run in that order, each only when the preset and the Env switches
// enable it, until one settles the question. When the search stops at
// its node limit after at least heur.DefaultAnnealProposals nodes on a
// chip the greedy placer fits, and the preset did not anneal before
// it, the annealing placer runs once after it. A fixed-schedule problem
// takes the two-dimensional bounds and the fixed-start placer instead
// and never consults or feeds the incumbent store or the annealer:
// their witnesses do not keep the prescribed starts; its search tier
// runs the 2D packer ahead of the engine when the problem is a pure 2D
// packing (call.pack2D). A nil error with
// Decision Unknown means a node/time limit or cancellation, not a
// failure.
func (pl *Pipeline) Solve(ctx context.Context, p *Problem) (*Result, error) {
	e := pl.env
	fixed := p.FixedStarts != nil
	c := &call{pl: pl, p: p, res: &Result{}, start: time.Now()}
	ctx, osp := e.oppSpan(ctx, p)
	defer func() { e.endOPPSpan(osp, c.res) }()
	e.Metrics.Counter("opp.calls").Inc()
	if e.Trace != nil {
		f := map[string]any{"instance": p.In.Name, "n": p.In.N(), "W": p.C.W, "H": p.C.H, "T": p.C.T}
		if fixed {
			f["fixed_schedule"] = true
		}
		if pl.name != NameStaged {
			f["strategy"] = pl.name
		}
		e.Trace.Emit("opp_start", f)
	}

	// A probe whose context is already dead spends no effort at all;
	// the racing drivers rely on this to discard queued probes cheaply,
	// and CLI deadlines rely on it to cut off between probes.
	if ctx.Err() != nil {
		return c.decide(Unknown, "canceled", "canceled", nil)
	}

	// Incumbent dominance: a witness from an earlier probe of this run
	// that fits the container decides feasibility with zero work.
	if pl.dominance && !fixed && e.Inc != nil {
		if w, src, ok := e.Inc.Dominating(p.C); ok {
			e.Metrics.Counter(obs.MetricStrategyIncumbentHits).Inc()
			return c.accept(w.Clone(), "incumbent", map[string]any{"incumbent_source": src})
		}
	}

	// Stage 1: lower bounds.
	if !e.SkipBounds {
		st := e.enter(ctx, obs.PhaseBounds)
		var bad bool
		var why string
		if fixed {
			bad, why = bounds.FixedScheduleInfeasible(p.In, p.C, p.FixedStarts)
		} else {
			bad, why = bounds.OPPInfeasible(p.In, p.C, p.Order)
		}
		c.res.Stages.Bounds = st.end()
		if bad {
			return c.decide(Infeasible, "bound: "+why, "bounds", map[string]any{"bound": why})
		}
		e.stageOutcome(obs.PhaseBounds, "pass", c.res.Stages.Bounds)
	}

	// Stage 2: greedy placer. The minimum-makespan placement for this
	// chip footprint is memoized in the incumbent store (when one is
	// attached): the list scheduler's slot scan is horizon-truncated,
	// so the probe at time budget T succeeds iff T ≥ mk, and then with
	// exactly the memoized placement — sweeps over T on one chip share
	// a single stage-2 computation without changing any answer. When it
	// misses T, its start times still order the engine's time-axis
	// branches (hint).
	var hint []int
	greedyFits := false
	if !e.SkipHeuristic {
		st := e.enter(ctx, obs.PhaseHeuristic)
		var wit *model.Placement
		if fixed {
			if w, ok := heur.PlaceFixed(p.In, p.C.W, p.C.H, p.FixedStarts); ok {
				wit = w
			}
		} else if w, mk, ok := e.heurWitness(p); ok {
			greedyFits = true
			hint = w.S
			if mk <= p.C.T {
				wit = w.Clone()
			}
		}
		c.res.Stages.Heuristic = st.end()
		if wit != nil {
			return c.accept(wit, "heuristic", nil)
		}
		e.stageOutcome(obs.PhaseHeuristic, "miss", c.res.Stages.Heuristic)

		// Stage 2½: annealing placer, ahead of the search under the
		// anneal preset. Only worth running when the greedy placer fits
		// the chip spatially but misses the time budget — annealing
		// cannot fix a spatial misfit.
		if pl.anneal && greedyFits {
			if w, ok := c.anneal(ctx); ok {
				return c.accept(w, "anneal", nil)
			}
		}
	}

	// Stage 3: packing-class branch and bound.
	e.Trace.Emit("stage", map[string]any{"phase": obs.PhaseSearch})
	st := e.enter(ctx, obs.PhaseSearch)
	if !p.C.Fits(p.In) {
		// The engine treats a task exceeding the container as a
		// programmer error; stage 1 screens it unless SkipBounds is set,
		// so the search screens it itself.
		c.res.Stages.Search = st.end()
		return c.decide(Infeasible, "search", "search", nil)
	}
	co := pl.searchOpts(ctx, p)
	if fixed {
		// A pure 2D packing goes to the bit-grid packer first; when it
		// runs out of steps the engine runs as it would without it.
		if w, d := c.pack2D(co, st.sp); d != Unknown {
			c.res.Stages.Search = st.end()
			if d == Infeasible {
				return c.decide(Infeasible, "search", "search", nil)
			}
			return c.accept(w, "search", nil)
		}
	}
	prob := BuildProblem(p.In, p.C, p.Order, p.FixedStarts)
	prob.Dims[timeDim].Hint = hint
	r := core.Solve(prob, co)
	c.res.Stages.Search = st.end()
	c.res.Stats = r.Stats
	e.Metrics.Counter(obs.MetricSearchNodes).Add(r.Stats.Nodes)
	e.Metrics.Counter(obs.MetricSearchPropagations).Add(r.Stats.Propagations)
	// Stage 2½ as the search's backup, under every preset that did not
	// already anneal: a search that ran out of nodes on a chip the
	// greedy placer fits gets one annealing walk. It waits until the
	// engine has spent a walk's proposals in nodes, so the backup never
	// costs more than the search it backs up; time limits and
	// cancellation end the probe without it.
	if r.Status == core.StatusNodeLimit && greedyFits && !pl.anneal && r.Stats.Nodes >= heur.DefaultAnnealProposals {
		if w, ok := c.anneal(ctx); ok {
			return c.accept(w, "anneal", nil)
		}
	}
	switch r.Status {
	case core.StatusFeasible:
		w := SolutionToPlacement(r.Solution)
		if fixed {
			// The engine realizes some schedule with the same component
			// graph and orientation; the prescribed start times are
			// another realization of it, so the spatial coordinates
			// carry over.
			w.S = append([]int(nil), p.FixedStarts...)
		}
		return c.accept(w, "search", nil)
	case core.StatusInfeasible:
		return c.decide(Infeasible, "search", "search", nil)
	case core.StatusCanceled:
		return c.decide(Unknown, "canceled", "canceled", nil)
	default:
		return c.decide(Unknown, "limit", "limit", nil)
	}
}

// call is the state of one Solve: the probe, its growing result and
// its start time.
type call struct {
	pl    *Pipeline
	p     *Problem
	res   *Result
	start time.Time
}

// decide settles the probe: it counts the outcome under
// opp.decided_by.<counter> and closes the trace bracket, merging extra
// into the opp_end event.
func (c *call) decide(d Decision, by, counter string, extra map[string]any) (*Result, error) {
	c.res.Decision = d
	c.res.DecidedBy = by
	c.res.Elapsed = time.Since(c.start)
	c.pl.env.Metrics.Counter("opp.decided_by." + counter).Inc()
	c.pl.env.traceOPPEnd(c.res, extra)
	return c.res, nil
}

// accept verifies a private feasible witness from the named tier,
// records greedy and search witnesses in the incumbent store when the
// preset says so, and settles the probe with it.
func (c *call) accept(w *model.Placement, by string, extra map[string]any) (*Result, error) {
	if err := verifyWitness(c.p, w); err != nil {
		return nil, fmt.Errorf("solver: %s produced invalid placement: %w", by, err)
	}
	if e := c.pl.env; c.pl.record && by != "incumbent" && c.p.FixedStarts == nil && e.Inc != nil {
		e.Inc.RecordWitness(c.p.In, w.Clone(), by)
	}
	c.res.Placement = w
	return c.decide(Feasible, by, by, extra)
}

// anneal runs stage 2½, the annealing placer, under its own stage span
// and returns a private copy of its schedule when that meets the time
// budget.
func (c *call) anneal(ctx context.Context) (*model.Placement, bool) {
	e := c.pl.env
	st := e.enter(ctx, obs.PhaseAnneal)
	w, mk, ok := e.annealWitness(ctx, c.p)
	c.res.Stages.Anneal = st.end()
	if ok && mk <= c.p.C.T {
		return w.Clone(), true
	}
	e.stageOutcome(obs.PhaseAnneal, "miss", c.res.Stages.Anneal)
	return nil, false
}

// verifyWitness checks a witness for p; a fixed-schedule witness must
// also keep the prescribed start times.
func verifyWitness(p *Problem, pl *model.Placement) error {
	if p.FixedStarts != nil && !slices.Equal(pl.S, p.FixedStarts) {
		return fmt.Errorf("start times %v differ from the prescribed %v", pl.S, p.FixedStarts)
	}
	return pl.Verify(p.In, p.C, p.Order)
}

// stage is one running stage of a probe: its span and start time.
type stage struct {
	sp *obs.Span
	t0 time.Time
}

// enter announces a stage to the Progress hook, so live tickers can
// show which stage a solve is in even before the first node-cadence
// snapshot arrives, and opens its span, parented to the probe span in
// ctx (nil when untraced).
func (e *Env) enter(ctx context.Context, phase string) stage {
	if e.Progress != nil {
		e.Progress(obs.Snapshot{Phase: phase})
	}
	_, sp := obs.StartSpan(ctx, nil, "stage")
	sp.SetAttr("phase", phase)
	return stage{sp: sp, t0: time.Now()}
}

// end closes the stage's span and returns its wall time.
func (s stage) end() time.Duration {
	d := time.Since(s.t0)
	s.sp.End()
	return d
}

// stageOutcome records a stage that did not settle the probe.
func (e *Env) stageOutcome(phase, outcome string, d time.Duration) {
	if e.Trace != nil {
		e.Trace.Emit("stage", map[string]any{"phase": phase, "outcome": outcome, "elapsed_ms": MS(d)})
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
	if res.DecidedBy == "search" || res.DecidedBy == "limit" || res.Stats.Nodes > 0 {
		f["stats"] = res.Stats
	}
	for k, v := range extra {
		f[k] = v
	}
	e.Trace.Emit("opp_end", f)
}

// heurWitness returns the greedy minimum-makespan placement for the
// problem's chip, memoized in the incumbent store when one is
// attached. ok is false only if some task does not fit the chip
// spatially. The returned placement is shared — callers must Clone
// before exposing or mutating it.
func (e *Env) heurWitness(p *Problem) (*model.Placement, int, bool) {
	if e.Inc == nil {
		return heur.MinMakespan(p.In, p.C.W, p.C.H, p.Order)
	}
	pl, mk, ok, hit := e.Inc.MinMakespan(p.In, p.C.W, p.C.H, p.Order)
	if hit {
		e.Metrics.Counter(obs.MetricStrategyHeurHits).Inc()
	} else {
		e.Metrics.Counter(obs.MetricStrategyHeurComputes).Inc()
	}
	return pl, mk, ok
}

// annealWitness returns the annealing placer's best schedule for the
// problem's chip, memoized in the incumbent store when one is
// attached, and records it as a witness for later dominance lookups.
// The returned placement is shared — callers must Clone before
// exposing or mutating it.
func (e *Env) annealWitness(ctx context.Context, p *Problem) (*model.Placement, int, bool) {
	if e.Inc == nil {
		return heur.AnnealMinMakespan(ctx, p.In, p.C.W, p.C.H, p.Order, heur.AnnealOptions{Seed: e.AnnealSeed})
	}
	pl, mk, ok, _ := e.Inc.Anneal(ctx, p.In, p.C.W, p.C.H, p.Order, e.AnnealSeed)
	if ok {
		e.Inc.RecordWitness(p.In, pl, "anneal")
	}
	return pl, mk, ok
}

// searchOpts returns the stage-3 engine options for problem p. When the
// engine will run a parallel (work-stealing) search, an incumbent store
// is attached and the preset answers probes by dominance, the pool's
// OnSolution hook broadcasts the winning witness into the store the
// moment a worker finds it — so concurrent sweep probes can already
// prune on it while this probe is still assembling its result. The hook
// verifies before recording; an invalid witness is dropped here and
// surfaces as an error on the main path.
func (pl *Pipeline) searchOpts(ctx context.Context, p *Problem) core.Options {
	e := pl.env
	co := e.SearchOpts(ctx)
	if pl.dominance && co.Workers > 1 && e.Inc != nil && p.FixedStarts == nil {
		in, c, order, inc := p.In, p.C, p.Order, e.Inc
		co.OnSolution = func(sol *core.Solution) {
			w := SolutionToPlacement(sol)
			if w.Verify(in, c, order) == nil {
				inc.RecordWitness(in, w, "search-parallel")
			}
		}
	}
	return co
}
