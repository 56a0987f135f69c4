package solver

import (
	"context"
	"fmt"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
)

// MinArea is an extension of the paper's BMP: instead of restricting the
// chip to a square, it finds a rectangular chip W×H of minimal area
// (ties broken towards the squarer shape) on which the instance
// completes within T cycles. The paper's MinA&FindS is the special case
// W = H.
//
// Algorithm: sweep the width from the widest module upwards; for each
// width, the minimal feasible height is monotone, so a binary search
// with a known-feasible upper bound applies. Widths whose best possible
// area (width × largest module height) cannot beat the incumbent are
// pruned, and the sweep stops when width × maxH alone exceeds the best
// area found.
func MinArea(in *model.Instance, T int, opt Options) (*OptRectResult, error) {
	return MinAreaCtx(context.Background(), in, T, opt)
}

// MinAreaCtx is MinArea under a context. The width sweep prunes on the
// incumbent area, so it stays sequential; cancellation aborts the
// current probe on the engine's node cadence and returns the partial
// result together with ctx.Err().
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
	start := time.Now()
	res := &OptRectResult{}
	if order.CriticalPath() > T {
		res.Decision = Infeasible
		res.Elapsed = time.Since(start)
		return res, nil
	}

	minW, minH := in.MaxW(), in.MaxH()
	// A generous width cap: at that width every pair can sit side by
	// side, so H = maxH works whenever the schedule alone is feasible.
	maxW := 0
	for _, t := range in.Tasks {
		maxW += t.W
	}
	volume := in.Volume()

	feasibleAt := func(w, h int) (Decision, *model.Placement, error) {
		r, err := solveOPP(ctx, in, model.Container{W: w, H: h, T: T}, order, opt)
		if err != nil {
			return Unknown, nil, err
		}
		res.Probes++
		res.Stats.Add(r.Stats)
		res.Stages.Add(r.Stages)
		opt.probe("minarea", map[string]any{"W": w, "H": h, "outcome": probeOutcomeLabel(r)})
		return r.Decision, r.Placement, nil
	}

	bestArea := -1
	for w := minW; w <= maxW; w++ {
		if bestArea >= 0 && bounds.SatMul(w, minH) >= bestArea {
			break // no width this large can improve the area
		}
		// Height lower bound for this width from volume and geometry.
		hLo := max(minH, bounds.CeilDiv(volume, bounds.SatMul(w, T)))
		// Find a feasible height by doubling, bounded by ΣH.
		hHi := hLo
		sumH := 0
		for _, t := range in.Tasks {
			sumH += t.H
		}
		var hiPlace *model.Placement
		for {
			if bestArea >= 0 && bounds.SatMul(w, hHi) >= bestArea {
				hiPlace = nil
				break
			}
			d, p, err := feasibleAt(w, hHi)
			if err != nil {
				return nil, err
			}
			if d == Unknown {
				res.Decision = Unknown
				res.Elapsed = time.Since(start)
				return res, ctx.Err()
			}
			if d == Feasible {
				hiPlace = p
				break
			}
			if hHi >= sumH {
				hiPlace = nil
				break
			}
			hHi *= 2
			if hHi > sumH {
				hHi = sumH
			}
		}
		if hiPlace == nil {
			continue // this width cannot beat the incumbent
		}
		// Binary search the minimal feasible height in [hLo, hHi].
		lo, hi := hLo, hHi
		bestH, bestP := hHi, hiPlace
		for lo < hi {
			mid := (lo + hi) / 2
			d, p, err := feasibleAt(w, mid)
			if err != nil {
				return nil, err
			}
			if d == Unknown {
				res.Decision = Unknown
				res.Elapsed = time.Since(start)
				return res, ctx.Err()
			}
			if d == Feasible {
				hi, bestH, bestP = mid, mid, p
			} else {
				lo = mid + 1
			}
		}
		area := bounds.SatMul(w, bestH)
		better := bestArea < 0 || area < bestArea
		if !better && area == bestArea {
			// Prefer the squarer chip on equal area.
			if diff(w, bestH) < diff(res.W, res.H) {
				better = true
			}
		}
		if better {
			bestArea = area
			res.W, res.H = w, bestH
			res.Placement = bestP
		}
	}
	if bestArea < 0 {
		return nil, fmt.Errorf("solver: no feasible rectangle found for %q (internal bound error)", in.Name)
	}
	res.Decision = Feasible
	res.Area = bestArea
	res.Elapsed = time.Since(start)
	return res, nil
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
