package solver

import (
	"context"

	"fpga3d/internal/model"
)

// MinTimeWithRotation computes the smallest execution time on a W×H
// chip when modules may rotate by 90°. Feasibility is monotone in T
// for any fixed orientation assignment, hence also for the best one, so
// binary search applies.
func MinTimeWithRotation(in *model.Instance, W, H int, opt Options) (*OptResult, []bool, error) {
	return MinTimeWithRotationCtx(context.Background(), in, W, H, opt)
}

// MinTimeWithRotationCtx is MinTimeWithRotation under a context;
// cancellation aborts the binary search promptly and returns the
// partial result together with ctx.Err().
func MinTimeWithRotationCtx(ctx context.Context, in *model.Instance, W, H int, opt Options) (*OptResult, []bool, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	order, err := in.Order()
	if err != nil {
		return nil, nil, err
	}
	if err := opt.validateStrategy(); err != nil {
		return nil, nil, err
	}
	ctx, run := opt.begin(ctx, "spp_rotate", in, map[string]any{"W": W, "H": H})
	// A module fits (in some orientation) iff its smaller side fits the
	// smaller chip side and its larger side the larger one.
	cLo, cHi := min(W, H), max(W, H)
	for _, t := range in.Tasks {
		if min(t.W, t.H) > cLo || max(t.W, t.H) > cHi {
			return run.finish(Infeasible, 0, 0, nil), nil, nil
		}
	}
	run.LowerBound = order.CriticalPath()
	// Serialization always fits once each task does. The sweep stays
	// outside the portfolio's witness jumps: every orientation probe
	// keeps an incumbent store of its own.
	s := newSweep(run, "T", run.LowerBound, in.TotalDuration(), false, rotationProbe(in, func(T int) model.Container {
		return model.Container{W: W, H: H, T: T}
	}))
	res, err := s.finish(s.search(ctx))
	return res, s.payload, err
}

// rotationProbe builds the probe of a sweep over orientation-free
// OPP decisions; its payload is the witness's rotation mask.
func rotationProbe(in *model.Instance, container func(v int) model.Container) probeFunc[[]bool] {
	return func(ctx context.Context, opt Options, v int) (*OPPResult, []bool, error) {
		r, err := SolveOPPWithRotationCtx(ctx, in, container(v), opt)
		if err != nil {
			return nil, nil, err
		}
		return &r.OPPResult, r.Rotations, nil
	}
}

// MinTimeMultiChip computes the smallest execution time on k identical
// W×H chips.
func MinTimeMultiChip(in *model.Instance, chipW, chipH, k int, opt Options) (*MultiChipResult, error) {
	return MinTimeMultiChipCtx(context.Background(), in, chipW, chipH, k, opt)
}

// MinTimeMultiChipCtx is MinTimeMultiChip under a context; cancellation
// aborts the binary search promptly and returns the partial result
// together with ctx.Err().
func MinTimeMultiChipCtx(ctx context.Context, in *model.Instance, chipW, chipH, k int, opt Options) (*MultiChipResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order, err := in.Order()
	if err != nil {
		return nil, err
	}
	if err := opt.validateStrategy(); err != nil {
		return nil, err
	}
	ctx, run := opt.begin(ctx, "spp_multichip", in, map[string]any{"W": chipW, "H": chipH, "chips": k})
	if in.MaxW() > chipW || in.MaxH() > chipH || k < 1 {
		return multiChipResult(run.finish(Infeasible, 0, 0, nil), nil, k), nil
	}
	// The serialized horizon is feasible on a single chip, a fortiori
	// on k. Multi-chip probes have no bounds or heuristic stage: every
	// probe is pure exact search, so under the portfolio preset the
	// witness-makespan jumps carry the whole pruning burden — the
	// engine's first solution within a budget of T cycles typically
	// finishes well before T.
	s := newSweep(run, "T", order.CriticalPath(), in.TotalDuration(), false, func(ctx context.Context, opt Options, T int) (*OPPResult, []int, error) {
		return solveMultiChip(ctx, opt, in, chipW, chipH, T, k, order)
	})
	s.objective = func(p *model.Placement) int { return p.Makespan(in) }
	res, err := s.finish(s.search(ctx))
	out := multiChipResult(res, s.payload, k)
	out.MinTime = res.Value
	return out, err
}
