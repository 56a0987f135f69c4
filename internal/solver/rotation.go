package solver

import (
	"context"
	"fmt"
	"math/bits"

	"fpga3d/internal/bounds"
	"fpga3d/internal/model"
)

// Rotation support is an extension beyond the paper, which treats module
// footprints as fixed. A 90° rotation swaps a module's w and h; the
// solver enumerates orientation assignments (only modules with w ≠ h
// have a meaningful choice) and decides each with the packing-class
// engine, preferring assignments with few rotations. Exactness is
// preserved: the instance is feasible with rotations allowed iff some
// assignment is feasible.

// maxRotatable bounds the number of non-square modules; beyond it the
// 2^k enumeration is refused rather than silently truncated.
const maxRotatable = 16

// RotationResult extends OPPResult with the chosen orientation.
type RotationResult struct {
	OPPResult
	// Rotations[i] reports whether task i is rotated in the witness
	// placement (meaningful only for feasible results).
	Rotations []bool
	// Oriented is the instance with the witness orientations applied;
	// Placement refers to its footprints.
	Oriented *model.Instance
}

// SolveOPPWithRotation decides feasibility when every module may be
// rotated by 90°.
func SolveOPPWithRotation(in *model.Instance, c model.Container, opt Options) (*RotationResult, error) {
	return SolveOPPWithRotationCtx(context.Background(), in, c, opt)
}

// SolveOPPWithRotationCtx is SolveOPPWithRotation under a context. Once
// ctx is done the mask enumeration stops and the aggregate comes back
// with Decision Unknown and DecidedBy "canceled" (nil error), matching
// SolveOPPCtx.
func SolveOPPWithRotationCtx(ctx context.Context, in *model.Instance, c model.Container, opt Options) (*RotationResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var rotatable []int
	for i, t := range in.Tasks {
		if t.W != t.H {
			rotatable = append(rotatable, i)
		}
	}
	if len(rotatable) > maxRotatable {
		return nil, fmt.Errorf("solver: %d rotatable modules exceed the rotation limit %d",
			len(rotatable), maxRotatable)
	}

	// Enumerate masks by increasing popcount so unrotated layouts are
	// preferred and reported first.
	masks := make([]uint32, 0, 1<<len(rotatable))
	for m := uint32(0); m < 1<<uint(len(rotatable)); m++ {
		masks = append(masks, m)
	}
	for i := 1; i < len(masks); i++ {
		for j := i; j > 0 && bits.OnesCount32(masks[j]) < bits.OnesCount32(masks[j-1]); j-- {
			masks[j], masks[j-1] = masks[j-1], masks[j]
		}
	}

	out := &RotationResult{}
	out.Decision = Infeasible
	for _, m := range masks {
		cand := in.Clone()
		rot := make([]bool, in.N())
		for bit, task := range rotatable {
			if m&(1<<uint(bit)) != 0 {
				cand.Tasks[task].W, cand.Tasks[task].H = cand.Tasks[task].H, cand.Tasks[task].W
				rot[task] = true
			}
		}
		r, err := SolveOPPCtx(ctx, cand, c, opt)
		if err != nil {
			return nil, err
		}
		out.Stats.Add(r.Stats)
		out.Stages.Add(r.Stages)
		out.Elapsed += r.Elapsed
		switch r.Decision {
		case Feasible:
			out.Decision = Feasible
			out.Placement = r.Placement
			out.DecidedBy = r.DecidedBy
			out.Rotations = rot
			out.Oriented = cand
			return out, nil
		case Unknown:
			out.Decision = Unknown // cannot prove overall infeasibility
			if r.DecidedBy == "canceled" {
				// Every remaining mask would be canceled too.
				out.DecidedBy = "canceled"
				return out, nil
			}
		}
	}
	return out, nil
}

// MinBaseWithRotation finds the smallest square chip side for time
// budget T when modules may rotate. Feasibility is monotone in the chip
// side (the same orientation assignment still fits), so a linear ascent
// from the rotation-aware lower bound is exact.
func MinBaseWithRotation(in *model.Instance, T int, opt Options) (*OptResult, []bool, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	order, err := in.Order()
	if err != nil {
		return nil, nil, err
	}
	res := &OptResult{}
	if order.CriticalPath() > T {
		res.Decision = Infeasible
		return res, nil, nil
	}
	// With rotation the per-module floor is min(w,h)… but both extents
	// must fit, so the floor is max over modules of min(w, h).
	lb := 1
	hMax := 0
	for _, t := range in.Tasks {
		lo, hi := t.W, t.H
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo > lb {
			lb = lo
		}
		hMax += hi
	}
	lb = max(lb, bounds.MinSquareSide(in.Volume(), T))
	res.LowerBound = lb
	for h := lb; h <= hMax; h++ {
		r, err := SolveOPPWithRotation(in, model.Container{W: h, H: h, T: T}, opt)
		if err != nil {
			return nil, nil, err
		}
		res.Probes++
		res.Stats.Add(r.Stats)
		res.Stages.Add(r.Stages)
		switch r.Decision {
		case Feasible:
			res.Decision = Feasible
			res.Value = h
			res.Placement = r.Placement
			return res, r.Rotations, nil
		case Unknown:
			res.Decision = Unknown
			return res, nil, nil
		}
	}
	return nil, nil, fmt.Errorf("solver: no feasible chip up to %d with rotation", hMax)
}
