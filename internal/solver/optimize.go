package solver

import (
	"context"
	"fmt"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/strategy"
)

// OptResult is the outcome of an optimization run (MinTime / MinBase).
type OptResult struct {
	Decision Decision
	// Value is the optimal T (MinTime) or h (MinBase); on a partial
	// result, the best value proven feasible so far (0 if none).
	Value     int
	Placement *model.Placement // a witness for Value
	// LowerBound is the stage-1 bound the search started from.
	LowerBound int
	// BestBound is the best proven lower bound on the objective at
	// exit: the optimum itself once the run completes, the refined
	// bound (≥ LowerBound) on a partial exit.
	BestBound int
	// Gap is the relative optimality gap at exit (see bounds.Gap):
	// 0 on a completed run, (Value − BestBound)/Value on a partial
	// result with a Value.
	Gap float64
	// Probes counts the OPP decision calls made (with Workers > 1 this
	// includes probes that were canceled as redundant mid-flight).
	Probes int
	// Stats accumulates engine statistics over all probes, including
	// the partial effort of canceled ones, so the merged node count
	// equals the sum of the per-probe shards.
	Stats core.Stats
	// Stages accumulates per-stage wall-clock durations over all probes.
	Stages  StageTimings
	Elapsed time.Duration
}

// MinTime solves MinT&FindS (the strip packing problem SPP): the
// smallest execution time T such that the instance fits a W×H chip
// while satisfying its precedence constraints.
func MinTime(in *model.Instance, W, H int, opt Options) (*OptResult, error) {
	return MinTimeCtx(context.Background(), in, W, H, opt)
}

// MinTimeCtx is MinTime under a context: the T-sweep's OPP decisions
// are raced on Options.Workers goroutines, ctx cancellation aborts the
// run promptly (on the engine's node cadence), and on cancellation the
// partial result — merged statistics of every probe — is returned
// together with ctx.Err().
func MinTimeCtx(ctx context.Context, in *model.Instance, W, H int, opt Options) (*OptResult, error) {
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
	return minTime(ctx, in, W, H, order, opt)
}

// heurMinMakespan computes the greedy minimum-makespan placement for a
// W×H chip through the run's incumbent store, so every later probe on
// the same chip shares the single stage-2 computation instead of
// redoing it (the returned placement is a private copy).
func (o Options) heurMinMakespan(in *model.Instance, W, H int, order *model.Order) (*model.Placement, int, bool) {
	if o.inc == nil {
		return heur.MinMakespan(in, W, H, order)
	}
	p, mk, ok, hit := o.inc.MinMakespan(in, W, H, order)
	if hit {
		o.Metrics.Counter(obs.MetricStrategyHeurHits).Inc()
	} else {
		o.Metrics.Counter(obs.MetricStrategyHeurComputes).Inc()
	}
	if p != nil {
		p = p.Clone()
	}
	return p, mk, ok
}

func minTime(ctx context.Context, in *model.Instance, W, H int, order *model.Order, opt Options) (*OptResult, error) {
	ctx, run := opt.begin(ctx, "spp", in, map[string]any{"W": W, "H": H})
	if in.MaxW() > W || in.MaxH() > H {
		return run.finish(Infeasible, 0, 0, nil), nil
	}
	// With a tracer attached, compute the full per-bound breakdown (and
	// its per-bound timings) instead of just the maximum.
	opt.notifyPhase(obs.PhaseBounds)
	tBounds := time.Now()
	var lb int
	if opt.Trace != nil {
		rep := bounds.MinTimeReport(in, W, H, order)
		lb = rep.Best
		opt.Trace.Emit("lower_bound", map[string]any{"mode": "spp", "value": rep.Best, "report": rep})
	} else {
		lb = bounds.MinTimeLB(in, W, H, order)
	}
	run.LowerBound = lb
	run.Stages.Bounds += time.Since(tBounds)

	// Upper bound from the greedy placer; a serialized schedule always
	// exists, so this cannot fail given the spatial fit check above.
	opt.notifyPhase(obs.PhaseHeuristic)
	tHeur := time.Now()
	ubPlace, ub, ok := opt.heurMinMakespan(in, W, H, order)
	run.Stages.Heuristic += time.Since(tHeur)
	if !ok {
		return run.finish(Unknown, 0, 0, nil), fmt.Errorf("solver: heuristic failed to serialize instance %q", in.Name)
	}
	if err := ubPlace.Verify(in, model.Container{W: W, H: H, T: ub}, order); err != nil {
		return run.finish(Unknown, 0, 0, nil), fmt.Errorf("solver: heuristic produced invalid schedule: %w", err)
	}

	// Binary search on the monotone predicate "fits within T".
	s := newSweep(run, "T", lb, ub, false, oppProbe(in, order, nil, func(T int) model.Container {
		return model.Container{W: W, H: H, T: T}
	}))
	s.objective = func(p *model.Placement) int { return p.Makespan(in) }
	s.raced = true
	if opt.Anytime {
		s.observe = anytimeObserver(&s.opt, run.start)
	}
	s.improve(ub, ubPlace, struct{}{}, "heuristic")
	// The anytime tier tightens the incumbent by annealing before the
	// exact refinement, streaming every improvement.
	if opt.Anytime {
		if err := annealIncumbent(ctx, in, W, H, order, s); err != nil {
			return run.finish(Unknown, 0, 0, nil), err
		}
	}
	return s.finish(s.search(ctx))
}

// oppProbe builds the probe of a FeasAT&FindS sweep in which the sweep
// value selects the container (with starts, the FeasA&FixedS question).
func oppProbe(in *model.Instance, order *model.Order, starts []int, container func(v int) model.Container) probeFunc[struct{}] {
	return func(ctx context.Context, opt Options, v int) (*OPPResult, struct{}, error) {
		r, err := solveOPP(ctx, &strategy.Problem{In: in, C: container(v), Order: order, FixedStarts: starts}, opt)
		return r, struct{}{}, err
	}
}

// MinBase solves MinA&FindS (the base minimization problem BMP): the
// smallest square chip h×h on which the instance completes within time T
// while satisfying its precedence constraints.
func MinBase(in *model.Instance, T int, opt Options) (*OptResult, error) {
	return MinBaseCtx(context.Background(), in, T, opt)
}

// MinBaseCtx is MinBase under a context: the h-sweep's OPP decisions
// are raced on Options.Workers goroutines with first-useful-answer
// pruning — a feasibility proof at h cancels all probes at h' > h, an
// infeasibility proof at h cancels all probes at h' ≤ h — and ctx
// cancellation aborts the run promptly with the partial merged
// statistics and ctx.Err().
func MinBaseCtx(ctx context.Context, in *model.Instance, T int, opt Options) (*OptResult, error) {
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
	return minBase(ctx, in, T, order, opt, 0, nil)
}

// minBase runs the h-ascent at T. A non-nil prev is a witness on the
// prevH×prevH chip that finishes within T (the Pareto walk's previous
// point); it is verified and seeds the ascent as its incumbent.
func minBase(ctx context.Context, in *model.Instance, T int, order *model.Order, opt Options, prevH int, prev *model.Placement) (*OptResult, error) {
	ctx, run := opt.begin(ctx, "bmp", in, map[string]any{"T": T})
	if order.CriticalPath() > T {
		// No chip of any size can beat the dependency chains.
		return run.finish(Infeasible, 0, 0, nil), nil
	}
	opt.notifyPhase(obs.PhaseBounds)
	tBounds := time.Now()
	lb := bounds.MinBaseLB(in, T, order)
	run.LowerBound = lb
	run.Stages.Bounds += time.Since(tBounds)
	opt.Trace.Emit("lower_bound", map[string]any{"mode": "bmp", "value": lb})

	s := newSweep(run, "h", lb, maxSideSum(in), true, oppProbe(in, order, nil, func(h int) model.Container {
		return model.Container{W: h, H: h, T: T}
	}))
	s.raced = true
	if prev != nil {
		if err := prev.Verify(in, model.Container{W: prevH, H: prevH, T: T}, order); err != nil {
			return run.finish(Unknown, 0, 0, nil), fmt.Errorf("solver: carried pareto witness fails at h=%d, T=%d: %w", prevH, T, err)
		}
		s.improve(prevH, prev, struct{}{}, "pareto")
	}
	res, err := s.finish(s.search(ctx))
	if res.Decision == Infeasible {
		return nil, fmt.Errorf("solver: no feasible chip up to %dx%d for instance %q (internal bound error)",
			s.hi, s.hi, in.Name)
	}
	return res, err
}

// maxSideSum is the chip side on which every task fits spatially
// disjoint from every other (only the critical path then matters), so
// a chip-side ascent always ends by it.
func maxSideSum(in *model.Instance) int {
	h := 0
	for _, t := range in.Tasks {
		h += max(t.W, t.H)
	}
	return h
}

// FeasibleFixedScheduleCtx solves FeasA&FixedS: given start times for
// every task, decide whether a non-overlapping spatial placement on the
// W×H chip exists. With the time dimension fully decided, the
// packing-class search degenerates to the two spatial dimensions — the
// simplification highlighted in Section 4 of the paper. Every strategy
// preset tries per-slice area and conservative-scale bounds and a
// fixed-start placer before that search (see strategy.Pipeline.Solve).
// Cancellation semantics match SolveOPPCtx.
func FeasibleFixedScheduleCtx(ctx context.Context, in *model.Instance, c model.Container, starts []int, opt Options) (*OPPResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order, err := in.Order()
	if err != nil {
		return nil, err
	}
	if err := model.VerifySchedule(in, starts, c.T, order); err != nil {
		return nil, err
	}
	opt, err = opt.withRun()
	if err != nil {
		return nil, err
	}
	return solveOPP(ctx, &strategy.Problem{In: in, C: c, Order: order, FixedStarts: starts}, opt)
}

// MinBaseFixedScheduleCtx solves MinA&FixedS: the smallest square chip
// that admits a spatial placement for the prescribed start times. It
// races the h-ascent on Options.Workers goroutines like MinBaseCtx.
func MinBaseFixedScheduleCtx(ctx context.Context, in *model.Instance, starts []int, opt Options) (*OptResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order, err := in.Order()
	if err != nil {
		return nil, err
	}
	T := 0
	for i, t := range in.Tasks {
		if f := starts[i] + t.Dur; f > T {
			T = f
		}
	}
	if err := model.VerifySchedule(in, starts, T, order); err != nil {
		return nil, err
	}
	opt, err = opt.withRun()
	if err != nil {
		return nil, err
	}
	ctx, run := opt.begin(ctx, "bmp_fixed", in, map[string]any{"T": T})
	// Every side below the slice-area bound is one that stage 1 refutes,
	// so the ascent starts there.
	run.LowerBound = bounds.MinBaseFixedLB(in, starts)
	s := newSweep(run, "h", run.LowerBound, maxSideSum(in), true, oppProbe(in, order, starts, func(h int) model.Container {
		return model.Container{W: h, H: h, T: T}
	}))
	s.raced = true
	res, err := s.finish(s.search(ctx))
	if res.Decision == Infeasible {
		return nil, fmt.Errorf("solver: no feasible chip for fixed schedule of %q", in.Name)
	}
	return res, err
}
