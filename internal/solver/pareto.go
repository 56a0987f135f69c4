package solver

import (
	"context"
	"fmt"
	"time"

	"fpga3d/internal/core"
	"fpga3d/internal/model"
)

// ParetoPoint is one point of the (execution time, chip side) trade-off
// curve of Figure 7: at time budget T, the minimal square chip is H×H.
type ParetoPoint struct {
	T int
	H int
}

// ParetoResult is the full trade-off curve plus bookkeeping.
type ParetoResult struct {
	// Points holds the Pareto-optimal (T, h) pairs, ascending in T and
	// strictly descending in h.
	Points []ParetoPoint
	// Curve holds the minimal h for every probed T (including dominated
	// points), for plotting the staircase.
	Curve  []ParetoPoint
	Probes int
	// Stats and Stages accumulate engine effort over every probe of
	// the sweep.
	Stats   core.Stats
	Stages  StageTimings
	Elapsed time.Duration
}

// ParetoFront computes the Pareto-optimal (time, chip size) pairs for
// the instance: for each feasible time budget starting at the critical
// path, the minimal square chip side, stopping once the chip can no
// longer shrink (it has reached the largest single module).
//
// For the unconstrained curve of Figure 7(b), pass in.WithoutPrec().
func ParetoFront(in *model.Instance, opt Options) (*ParetoResult, error) {
	return ParetoFrontCtx(context.Background(), in, opt)
}

// ParetoFrontCtx is ParetoFront under a context. The T-walk is
// inherently sequential: a chip that fits within T−1 also fits within
// T, so each step's BMP ascent starts with the previous step's chip and
// witness as its incumbent and probes just below it first. Each ascent
// races its h-probes on Options.Workers goroutines; cancellation aborts
// the walk promptly and returns the partial curve together with
// ctx.Err().
func ParetoFrontCtx(ctx context.Context, in *model.Instance, opt Options) (*ParetoResult, error) {
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
	ctx, run := opt.begin(ctx, "pareto", in, nil)
	res := &ParetoResult{}
	// done stamps the walk's merged effort on res.
	done := func(d Decision, err error) (*ParetoResult, error) {
		o := run.finish(d, 0, 0, nil)
		res.Probes, res.Stats, res.Stages, res.Elapsed = o.Probes, o.Stats, o.Stages, o.Elapsed
		return res, err
	}

	hFloor := max(in.MaxW(), in.MaxH())
	tMin := order.CriticalPath()
	tCap := tMin + in.TotalDuration() // every instance serializes by then

	// prevH and prev are the previous step's optimum and its witness:
	// h never grows with T, so prevH is also the last point's side.
	prevH, prev := -1, (*model.Placement)(nil)
	for T := tMin; T <= tCap; T++ {
		r, err := minBase(ctx, in, T, order, opt, prevH, prev)
		if r != nil {
			run.Probes += r.Probes
			run.Stats.Add(r.Stats)
			run.Stages.Add(r.Stages)
		}
		if err != nil {
			return done(Unknown, err)
		}
		if r.Decision != Feasible {
			return done(Unknown, fmt.Errorf("solver: pareto probe at T=%d undecided", T))
		}
		res.Curve = append(res.Curve, ParetoPoint{T: T, H: r.Value})
		if prevH == -1 || r.Value < prevH {
			res.Points = append(res.Points, ParetoPoint{T: T, H: r.Value})
			opt.Trace.Emit("pareto_point", map[string]any{"T": T, "h": r.Value})
		}
		prevH, prev = r.Value, r.Placement
		if r.Value == hFloor {
			break
		}
	}
	return done(Feasible, nil)
}
