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
	Decision  Decision
	Value     int              // the optimal T (MinTime) or h (MinBase)
	Placement *model.Placement // a witness for the optimum
	// LowerBound is the stage-1 bound the search started from.
	LowerBound int
	// BestBound is the best proven lower bound on the objective at
	// exit: the optimum itself once the run completes, the refined
	// bound (≥ LowerBound) on a partial MinTime exit.
	BestBound int
	// Gap is the relative optimality gap at exit (see bounds.Gap):
	// 0 on a completed run, (Value − BestBound)/Value on a partial
	// MinTime result. Meaningful for MinTime; 0 elsewhere.
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
	start := time.Now()
	res := &OptResult{}
	ctx, dspan := opt.driverSpan(ctx, "spp", in.Name)
	defer func() { opt.endDriverSpan(dspan, res) }()
	opt.Trace.Emit("solve_start", map[string]any{
		"mode": "spp", "instance": in.Name, "n": in.N(), "W": W, "H": H,
	})
	if in.MaxW() > W || in.MaxH() > H {
		res.Decision = Infeasible
		res.Elapsed = time.Since(start)
		opt.traceSolveEnd("spp", res)
		return res, nil
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
	res.LowerBound = lb
	res.Stages.Bounds += time.Since(tBounds)

	// Upper bound from the greedy placer; a serialized schedule always
	// exists, so this cannot fail given the spatial fit check above.
	opt.notifyPhase(obs.PhaseHeuristic)
	tHeur := time.Now()
	ubPlace, ub, ok := opt.heurMinMakespan(in, W, H, order)
	res.Stages.Heuristic += time.Since(tHeur)
	if !ok {
		return nil, fmt.Errorf("solver: heuristic failed to serialize instance %q", in.Name)
	}
	if err := ubPlace.Verify(in, model.Container{W: W, H: H, T: ub}, order); err != nil {
		return nil, fmt.Errorf("solver: heuristic produced invalid schedule: %w", err)
	}
	best, bestPlace := ub, ubPlace
	opt.incumbent("spp", ub, "heuristic")
	if opt.portfolio() {
		opt.inc.RecordWitness(in, ubPlace, "heuristic")
	}

	// The anytime tier takes over from here: annealing tightens the
	// incumbent, then a sequential exact refinement streams every
	// improvement of the (incumbent, bound) pair until the gap closes.
	if opt.Anytime {
		return minTimeAnytime(ctx, in, W, H, order, opt, res, start, lb, best, bestPlace)
	}

	if workers := opt.effectiveWorkers(); workers > 1 {
		probe := oppProbe(in, order, opt, func(T int) model.Container {
			return model.Container{W: W, H: H, T: T}
		})
		onProbe := func(T int, r *OPPResult) {
			res.mergeProbe(r)
			opt.probe("spp", map[string]any{"T": T, "outcome": probeOutcomeLabel(r)})
		}
		d, value, witness, err := raceBinary(ctx, workers, lb, ub, probe, onProbe, opt.Metrics)
		if err != nil {
			res.Decision = Unknown
			res.Value = best
			res.Placement = bestPlace
			res.BestBound = lb
			res.Gap = bounds.Gap(best, lb)
			res.Elapsed = time.Since(start)
			opt.traceSolveEnd("spp", res)
			return res, err
		}
		if d == Feasible && witness != nil {
			best, bestPlace = value, witness.Placement
		} else if d == Feasible {
			best = value // == ub; the heuristic witness stands
		}
		res.Decision = d
		res.Value = best
		res.Placement = bestPlace
		res.Elapsed = time.Since(start)
		if d == Feasible {
			res.BestBound = best
			opt.incumbent("spp", best, "search")
		} else {
			res.BestBound = lb
			res.Gap = bounds.Gap(best, lb)
		}
		opt.traceSolveEnd("spp", res)
		return res, nil
	}

	// Binary search on the monotone predicate "fits within T".
	lo, hi := lb, ub // hi is known feasible
	firstProbe := true
	for lo < hi {
		mid := (lo + hi) / 2
		if opt.portfolio() && firstProbe && mid < hi-1 {
			// Incumbent-optimality probe: attack the point directly
			// below the heuristic incumbent first. If it is infeasible,
			// monotonicity of "fits within T" closes the whole interval
			// in one probe; otherwise the witness tightens hi below.
			mid = hi - 1
		}
		firstProbe = false
		r, err := solveOPP(ctx, in, model.Container{W: W, H: H, T: mid}, order, opt)
		if err != nil {
			return nil, err
		}
		res.mergeProbe(r)
		opt.probe("spp", map[string]any{"T": mid, "outcome": probeOutcomeLabel(r)})
		switch r.Decision {
		case Feasible:
			hi = mid
			best, bestPlace = mid, r.Placement
			opt.incumbent("spp", mid, r.DecidedBy)
			if opt.portfolio() {
				// The witness may finish earlier than the probed budget;
				// its makespan is a certified feasible point, so the
				// sweep jumps straight down to it.
				if mk := r.Placement.Makespan(in); mk < hi {
					hi = mk
					best, bestPlace = mk, r.Placement
					opt.incumbent("spp", mk, r.DecidedBy)
				}
			}
		case Infeasible:
			lo = mid + 1
		default:
			res.Decision = Unknown
			res.Value = best
			res.Placement = bestPlace
			res.BestBound = lo
			res.Gap = bounds.Gap(best, lo)
			res.Elapsed = time.Since(start)
			opt.traceSolveEnd("spp", res)
			return res, ctx.Err()
		}
	}
	res.Decision = Feasible
	res.Value = best
	res.Placement = bestPlace
	res.BestBound = best
	res.Elapsed = time.Since(start)
	opt.traceSolveEnd("spp", res)
	return res, nil
}

// driverSpan opens the span of one optimization run (mode "spp",
// "bmp", "bmp_fixed", …) as a child of the span carried by ctx — in
// fpgad, the request span — rooted in the run's tracer otherwise. Nil
// (and free beyond one context lookup) when no tracer is reachable.
func (o Options) driverSpan(ctx context.Context, mode, instance string) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, o.Trace, mode)
	if sp != nil {
		sp.SetAttr("instance", instance)
	}
	return ctx, sp
}

// endDriverSpan finishes an optimization run's span with its outcome.
func (o Options) endDriverSpan(sp *obs.Span, res *OptResult) {
	if sp == nil {
		return
	}
	sp.SetAttr("decision", res.Decision.String())
	sp.SetAttr("value", res.Value)
	sp.SetAttr("probes", res.Probes)
	sp.End()
}

// probe records one optimization-loop probe in the trace.
func (o Options) probe(mode string, fields map[string]any) {
	if o.Trace == nil {
		return
	}
	f := map[string]any{"mode": mode}
	for k, v := range fields {
		f[k] = v
	}
	o.Trace.Emit("probe", f)
	o.Metrics.Counter("probes").Inc()
}

// incumbent records a new best objective value with its source stage.
func (o Options) incumbent(mode string, value int, source string) {
	o.Metrics.Gauge("incumbent." + mode).Set(int64(value))
	o.Trace.Emit("incumbent", map[string]any{"mode": mode, "value": value, "source": source})
}

// traceSolveEnd closes an optimization run in the trace with its
// aggregated effort.
func (o Options) traceSolveEnd(mode string, res *OptResult) {
	if o.Trace == nil {
		return
	}
	o.Trace.Emit("solve_end", map[string]any{
		"mode":        mode,
		"decision":    res.Decision.String(),
		"value":       res.Value,
		"lower_bound": res.LowerBound,
		"best_bound":  res.BestBound,
		"gap":         res.Gap,
		"probes":      res.Probes,
		"nodes":       res.Stats.Nodes,
		"elapsed_ms":  ms(res.Elapsed),
		"stages_ms":   stagesMS(res.Stages),
		"stats":       res.Stats,
	})
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
	return minBase(ctx, in, T, order, opt)
}

func minBase(ctx context.Context, in *model.Instance, T int, order *model.Order, opt Options) (*OptResult, error) {
	start := time.Now()
	res := &OptResult{}
	ctx, dspan := opt.driverSpan(ctx, "bmp", in.Name)
	defer func() { opt.endDriverSpan(dspan, res) }()
	opt.Trace.Emit("solve_start", map[string]any{
		"mode": "bmp", "instance": in.Name, "n": in.N(), "T": T,
	})
	if order.CriticalPath() > T {
		// No chip of any size can beat the dependency chains.
		res.Decision = Infeasible
		res.Elapsed = time.Since(start)
		opt.traceSolveEnd("bmp", res)
		return res, nil
	}
	opt.notifyPhase(obs.PhaseBounds)
	tBounds := time.Now()
	lb := bounds.MinBaseLB(in, T, order)
	res.LowerBound = lb
	res.Stages.Bounds += time.Since(tBounds)
	opt.Trace.Emit("lower_bound", map[string]any{"mode": "bmp", "value": lb})

	// With every task spatially disjoint (a huge chip), only the
	// critical path matters, so a finite upper bound always exists.
	hMax := 0
	for _, t := range in.Tasks {
		m := t.W
		if t.H > m {
			m = t.H
		}
		hMax += m
	}

	if workers := opt.effectiveWorkers(); workers > 1 {
		probe := oppProbe(in, order, opt, func(h int) model.Container {
			return model.Container{W: h, H: h, T: T}
		})
		onProbe := func(h int, r *OPPResult) {
			res.mergeProbe(r)
			opt.probe("bmp", map[string]any{"h": h, "outcome": probeOutcomeLabel(r)})
		}
		d, value, witness, err := raceAscending(ctx, workers, lb, hMax, probe, onProbe, opt.Metrics)
		res.Elapsed = time.Since(start)
		if err != nil {
			res.Decision = Unknown
			opt.traceSolveEnd("bmp", res)
			return res, err
		}
		switch d {
		case Feasible:
			res.Decision = Feasible
			res.Value = value
			res.Placement = witness.Placement
			opt.incumbent("bmp", value, witness.DecidedBy)
			opt.traceSolveEnd("bmp", res)
			return res, nil
		case Unknown:
			res.Decision = Unknown
			opt.traceSolveEnd("bmp", res)
			return res, nil
		}
		return nil, fmt.Errorf("solver: no feasible chip up to %dx%d for instance %q (internal bound error)",
			hMax, hMax, in.Name)
	}

	for h := lb; h <= hMax; h++ {
		r, err := solveOPP(ctx, in, model.Container{W: h, H: h, T: T}, order, opt)
		if err != nil {
			return nil, err
		}
		res.mergeProbe(r)
		opt.probe("bmp", map[string]any{"h": h, "outcome": probeOutcomeLabel(r)})
		switch r.Decision {
		case Feasible:
			res.Decision = Feasible
			res.Value = h
			res.Placement = r.Placement
			res.Elapsed = time.Since(start)
			opt.incumbent("bmp", h, r.DecidedBy)
			opt.traceSolveEnd("bmp", res)
			return res, nil
		case Infeasible:
			// keep growing h
		default:
			res.Decision = Unknown
			res.Elapsed = time.Since(start)
			opt.traceSolveEnd("bmp", res)
			return res, ctx.Err()
		}
	}
	return nil, fmt.Errorf("solver: no feasible chip up to %dx%d for instance %q (internal bound error)",
		hMax, hMax, in.Name)
}

// FeasibleFixedSchedule solves FeasA&FixedS: given start times for every
// task, decide whether a non-overlapping spatial placement on the W×H
// chip exists. With the time dimension fully decided, the packing-class
// search degenerates to the two spatial dimensions — the simplification
// highlighted in Section 4 of the paper. Every strategy preset tries
// per-slice area and conservative-scale bounds and a fixed-start placer
// before that search (see strategy.Pipeline.Solve).
func FeasibleFixedSchedule(in *model.Instance, c model.Container, starts []int, opt Options) (*OPPResult, error) {
	return FeasibleFixedScheduleCtx(context.Background(), in, c, starts, opt)
}

// FeasibleFixedScheduleCtx is FeasibleFixedSchedule under a context;
// cancellation semantics match SolveOPPCtx.
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
	pl, err := opt.pipeline()
	if err != nil {
		return nil, err
	}
	return pl.Solve(ctx, &strategy.Problem{In: in, C: c, Order: order, FixedStarts: starts})
}

// MinBaseFixedSchedule solves MinA&FixedS: the smallest square chip that
// admits a spatial placement for the prescribed start times.
func MinBaseFixedSchedule(in *model.Instance, starts []int, opt Options) (*OptResult, error) {
	return MinBaseFixedScheduleCtx(context.Background(), in, starts, opt)
}

// MinBaseFixedScheduleCtx is MinBaseFixedSchedule under a context,
// racing the h-ascent on Options.Workers goroutines like MinBaseCtx.
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
	start := time.Now()
	res := &OptResult{}
	ctx, dspan := opt.driverSpan(ctx, "bmp_fixed", in.Name)
	defer func() { opt.endDriverSpan(dspan, res) }()
	// Every side below the slice-area bound is one that stage 1 refutes,
	// so the ascent starts there.
	lb := bounds.MinBaseFixedLB(in, starts)
	res.LowerBound = lb
	hMax := 0
	for _, t := range in.Tasks {
		m := t.W
		if t.H > m {
			m = t.H
		}
		hMax += m
	}

	if workers := opt.effectiveWorkers(); workers > 1 {
		probe := func(pctx context.Context, h int) (*OPPResult, error) {
			return FeasibleFixedScheduleCtx(pctx, in, model.Container{W: h, H: h, T: T}, starts, opt)
		}
		onProbe := func(h int, r *OPPResult) {
			res.mergeProbe(r)
			opt.probe("bmp_fixed", map[string]any{"h": h, "outcome": probeOutcomeLabel(r)})
		}
		d, value, witness, err := raceAscending(ctx, workers, lb, hMax, probe, onProbe, opt.Metrics)
		res.Elapsed = time.Since(start)
		if err != nil {
			res.Decision = Unknown
			opt.traceSolveEnd("bmp_fixed", res)
			return res, err
		}
		switch d {
		case Feasible:
			res.Decision = Feasible
			res.Value = value
			res.Placement = witness.Placement
			opt.incumbent("bmp_fixed", value, witness.DecidedBy)
			opt.traceSolveEnd("bmp_fixed", res)
			return res, nil
		case Unknown:
			res.Decision = Unknown
			opt.traceSolveEnd("bmp_fixed", res)
			return res, nil
		}
		return nil, fmt.Errorf("solver: no feasible chip for fixed schedule of %q", in.Name)
	}

	for h := lb; h <= hMax; h++ {
		r, err := FeasibleFixedScheduleCtx(ctx, in, model.Container{W: h, H: h, T: T}, starts, opt)
		if err != nil {
			return nil, err
		}
		res.mergeProbe(r)
		opt.probe("bmp_fixed", map[string]any{"h": h, "outcome": probeOutcomeLabel(r)})
		switch r.Decision {
		case Feasible:
			res.Decision = Feasible
			res.Value = h
			res.Placement = r.Placement
			res.Elapsed = time.Since(start)
			opt.incumbent("bmp_fixed", h, r.DecidedBy)
			opt.traceSolveEnd("bmp_fixed", res)
			return res, nil
		case Infeasible:
		default:
			res.Decision = Unknown
			res.Elapsed = time.Since(start)
			opt.traceSolveEnd("bmp_fixed", res)
			return res, ctx.Err()
		}
	}
	return nil, fmt.Errorf("solver: no feasible chip for fixed schedule of %q", in.Name)
}
