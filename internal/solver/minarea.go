package solver

import (
	"context"
	"fmt"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/strategy"
)

// MinArea is an extension of the paper's BMP: instead of restricting the
// chip to a square, it finds a rectangular chip W×H of minimal area
// (ties broken towards the squarer shape) on which the instance
// completes within T cycles. The paper's MinA&FindS is the special case
// W = H.
//
// Algorithm: sweep the width from the widest module upwards; for each
// width, the minimal feasible height is monotone, so it is found by an
// ascent over the doubling heights hLo, 2·hLo, … up to the first
// feasible one, then a binary search between hLo and it that skips the
// heights the ascent refuted. The ascent ends at the largest height
// that still improves on the incumbent (at ΣH before there is one): a
// smaller area, or the same area on a squarer chip. So a width is
// passed over only when every improving height is refuted; the sweep
// stops when width × maxH alone exceeds the best area found.
func MinArea(in *model.Instance, T int, opt Options) (*OptRectResult, error) {
	return MinAreaCtx(context.Background(), in, T, opt)
}

// MinAreaCtx is MinArea under a context. The width sweep prunes on the
// incumbent area, so widths are visited in order and their heights
// probed one at a time (with Options.Workers > 1 each probe steals work
// inside its own search); cancellation aborts the current probe on the
// engine's node cadence and returns the partial result together with
// ctx.Err().
func MinAreaCtx(ctx context.Context, in *model.Instance, T int, opt Options) (*OptRectResult, error) {
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
	ctx, run := opt.begin(ctx, "minarea", in, map[string]any{"T": T})
	bestW, bestH, bestArea := 0, 0, -1
	var bestP *model.Placement
	done := func(d Decision, err error) (*OptRectResult, error) {
		bound := 0 // an undecided run proves no area floor
		if d == Feasible {
			bound = bestArea
		}
		r := run.finish(d, max(bestArea, 0), bound, bestP)
		return &OptRectResult{Decision: d, W: bestW, H: bestH, Area: r.Value, Placement: bestP,
			Probes: r.Probes, Stats: r.Stats, Stages: r.Stages, Elapsed: r.Elapsed}, err
	}
	if order.CriticalPath() > T {
		return done(Infeasible, nil)
	}

	minW, minH := in.MaxW(), in.MaxH()
	// A generous width cap: at that width every pair can sit side by
	// side, so H = maxH works whenever the schedule alone is feasible.
	maxW, sumH := 0, 0
	for _, t := range in.Tasks {
		maxW += t.W
		sumH += t.H
	}
	volume := in.Volume()

	for w := minW; w <= maxW; w++ {
		if bestArea >= 0 && bounds.SatMul(w, minH) > bestArea {
			break // no width this large can improve the area
		}
		probe := func(height func(int) int) probeFunc[struct{}] {
			return func(ctx context.Context, opt Options, v int) (*OPPResult, struct{}, error) {
				h := height(v)
				r, err := solveOPP(ctx, &strategy.Problem{In: in, C: model.Container{W: w, H: h, T: T}, Order: order}, opt)
				if err == nil {
					opt.probe("minarea", map[string]any{"W": w, "H": h, "outcome": probeOutcomeLabel(r)})
				}
				return r, struct{}{}, err
			}
		}
		// The doubling heights from the volume bound for this width,
		// ending at the largest height that still improves on the
		// incumbent, so the bisection below covers every improving
		// height.
		top := sumH
		if bestArea >= 0 {
			h := (bestArea - 1) / w
			if bestArea%w == 0 && diff(w, bestArea/w) < diff(bestW, bestH) {
				h = bestArea / w // the same area on a squarer chip
			}
			top = min(top, h)
		}
		var ladder []int
		for h := max(minH, bounds.CeilDiv(volume, bounds.SatMul(w, T))); h <= top; h = min(2*h, top) {
			ladder = append(ladder, h)
			if h == top {
				break
			}
		}
		if len(ladder) == 0 {
			continue
		}
		up := newSweep(run, "", 0, len(ladder)-1, true, probe(func(k int) int { return ladder[k] }))
		if err := up.search(ctx); err != nil || up.decision() == Unknown {
			return done(Unknown, err)
		}
		if up.decision() == Infeasible {
			continue // no height this width can improve with
		}
		// Bisect between the first doubling height and the first feasible
		// one, skipping the points the doubling already refuted.
		down := newSweep(run, "", ladder[0], ladder[up.best], false, probe(func(h int) int { return h }))
		if up.best > 0 {
			down.floor = ladder[up.best-1] + 1
		}
		down.improve(ladder[up.best], up.witness, struct{}{}, "")
		if err := down.search(ctx); err != nil || down.decision() == Unknown {
			return done(Unknown, err)
		}
		area := bounds.SatMul(w, down.best)
		// Prefer the squarer chip on equal area.
		if bestArea < 0 || area < bestArea || (area == bestArea && diff(w, down.best) < diff(bestW, bestH)) {
			bestW, bestH, bestArea, bestP = w, down.best, area, down.witness
			opt.incumbent("minarea", area, "search")
		}
	}
	if bestArea < 0 {
		return done(Unknown, fmt.Errorf("solver: no feasible rectangle found for %q (internal bound error)", in.Name))
	}
	return done(Feasible, nil)
}

func diff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// OptRectResult is the outcome of a rectangular chip minimization.
type OptRectResult struct {
	Decision  Decision
	W, H      int
	Area      int
	Placement *model.Placement
	Probes    int
	Stats     core.Stats
	Stages    StageTimings
	Elapsed   time.Duration
}
