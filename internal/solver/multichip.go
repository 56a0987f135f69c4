package solver

import (
	"context"
	"fmt"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Multi-FPGA partitioning is an extension built on the engine's
// dimension-genericity: a system of k identical W×H chips is modeled as
// a fourth packing dimension of capacity k in which every task has
// extent 1 — two tasks overlap in the chip dimension iff they are
// assigned to the same chip, and only then must they separate in space
// or time. Precedence constraints stay on the time axis and hold across
// chips (the task model's memory-based communication needs no
// modification: results travel via the external memory interface).

// MultiChipResult reports a multi-chip feasibility or minimization
// outcome.
type MultiChipResult struct {
	Decision Decision
	// Chips is the number of chips used (the minimized value for
	// MinChips, the given k for SolveMultiChip).
	Chips int
	// Chip[i] is the chip index assigned to task i; Placement holds the
	// per-chip spatial coordinates and start times.
	Chip      []int
	Placement *model.Placement
	// MinTime is the minimized makespan (set by MinTimeMultiChip only).
	MinTime int
	Probes  int
	Stats   core.Stats
	Stages  StageTimings
	Elapsed time.Duration
}

// SolveMultiChipCtx decides whether the instance fits k identical W×H
// chips within T cycles under its precedence constraints. Cancellation
// semantics match SolveOPPCtx (Decision Unknown, partial statistics,
// nil error).
func SolveMultiChipCtx(ctx context.Context, in *model.Instance, chipW, chipH, T, k int, opt Options) (*MultiChipResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("solver: %d chips", k)
	}
	order, err := in.Order()
	if err != nil {
		return nil, err
	}
	if err := opt.validateStrategy(); err != nil {
		return nil, err
	}
	r, chip, err := solveMultiChip(ctx, opt, in, chipW, chipH, T, k, order)
	if err != nil {
		return nil, err
	}
	return &MultiChipResult{Decision: r.Decision, Chips: k, Chip: chip, Placement: r.Placement,
		Stats: r.Stats, Stages: r.Stages, Elapsed: r.Elapsed}, nil
}

// solveMultiChip decides one multi-chip question; it returns the chip
// assignment beside the decision, as the payload of a sweep probe.
func solveMultiChip(ctx context.Context, opt Options, in *model.Instance, chipW, chipH, T, k int, order *model.Order) (*OPPResult, []int, error) {
	start := time.Now()
	if in.MaxW() > chipW || in.MaxH() > chipH || order.CriticalPath() > T {
		return &OPPResult{Decision: Infeasible, DecidedBy: "bound", Elapsed: time.Since(start)}, nil, nil
	}

	n := in.N()
	ws := make([]int, n)
	hs := make([]int, n)
	ds := make([]int, n)
	ones := make([]int, n)
	for i, t := range in.Tasks {
		ws[i], hs[i], ds[i] = t.W, t.H, t.Dur
		ones[i] = 1
	}
	prob := &core.Problem{
		N: n,
		Dims: []core.Dim{
			{Cap: chipW, Sizes: ws},
			{Cap: chipH, Sizes: hs},
			{Cap: T, Sizes: ds, Ordered: true},
			{Cap: k, Sizes: ones},
		},
	}
	const timeDim = 2
	cl := order.Closure()
	for u := 0; u < n; u++ {
		uu := u
		cl.Out(uu).ForEach(func(v int) {
			prob.Seeds = append(prob.Seeds, core.SeedArc{Dim: timeDim, From: uu, To: v})
		})
	}
	opt.Metrics.Counter("opp.calls").Inc()
	opt.Trace.Emit("opp_start", map[string]any{
		"instance": in.Name, "n": n, "W": chipW, "H": chipH, "T": T, "chips": k,
	})
	opt.notifyPhase(obs.PhaseSearch)
	r := core.Solve(prob, opt.searchOptions(ctx))
	res := &OPPResult{Decision: Unknown, DecidedBy: "search", Stats: r.Stats, Elapsed: time.Since(start)}
	res.Stages.Search = res.Elapsed
	opt.Metrics.Counter(obs.MetricSearchNodes).Add(r.Stats.Nodes)
	opt.Metrics.Counter(obs.MetricSearchPropagations).Add(r.Stats.Propagations)
	var chip []int
	switch r.Status {
	case core.StatusFeasible:
		res.Decision = Feasible
		res.Placement = &model.Placement{
			X: append([]int(nil), r.Solution.Coords[0]...),
			Y: append([]int(nil), r.Solution.Coords[1]...),
			S: append([]int(nil), r.Solution.Coords[2]...),
		}
		chip = append([]int(nil), r.Solution.Coords[3]...)
		if err := verifyMultiChip(in, chipW, chipH, T, k, res.Placement, chip, order); err != nil {
			return nil, nil, fmt.Errorf("solver: multi-chip placement invalid: %w", err)
		}
	case core.StatusInfeasible:
		res.Decision = Infeasible
	case core.StatusCanceled:
		res.DecidedBy = "canceled"
	default:
		res.DecidedBy = "limit"
	}
	opt.Metrics.Counter("opp." + res.Decision.String()).Inc()
	if opt.Trace != nil {
		opt.Trace.Emit("opp_end", map[string]any{
			"decision":   res.Decision.String(),
			"decided_by": res.DecidedBy,
			"chips":      k,
			"nodes":      res.Stats.Nodes,
			"elapsed_ms": ms(res.Elapsed),
			"stages_ms":  stagesMS(res.Stages),
			"stats":      res.Stats,
		})
	}
	return res, chip, nil
}

// MinChips finds the minimal number of identical W×H chips on which the
// instance completes within T cycles. Feasibility is monotone in k, so
// a linear ascent from the volume bound is exact.
func MinChips(in *model.Instance, chipW, chipH, T int, opt Options) (*MultiChipResult, error) {
	return MinChipsCtx(context.Background(), in, chipW, chipH, T, opt)
}

// MinChipsCtx is MinChips under a context: cancellation aborts the
// k-ascent promptly and returns the partial aggregate together with
// ctx.Err().
func MinChipsCtx(ctx context.Context, in *model.Instance, chipW, chipH, T int, opt Options) (*MultiChipResult, error) {
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
	ctx, run := opt.begin(ctx, "multichip", in, map[string]any{"W": chipW, "H": chipH, "T": T})
	if in.MaxW() > chipW || in.MaxH() > chipH || order.CriticalPath() > T {
		return multiChipResult(run.finish(Infeasible, 0, 0, nil), nil, 0), nil
	}
	// Lower bound: total volume over one chip's space-time volume.
	// Upper bound: one chip per task always works (critical path fits).
	kLo := max(1, bounds.CeilDiv(in.Volume(), bounds.SatMul(bounds.SatMul(chipW, chipH), T)))
	s := newSweep(run, "chips", kLo, in.N(), true, func(ctx context.Context, opt Options, k int) (*OPPResult, []int, error) {
		return solveMultiChip(ctx, opt, in, chipW, chipH, T, k, order)
	})
	res, err := s.finish(s.search(ctx))
	if res.Decision == Infeasible {
		return nil, fmt.Errorf("solver: %q infeasible even with one chip per task (internal error)", in.Name)
	}
	return multiChipResult(res, s.payload, res.Value), err
}

// multiChipResult reports a multi-chip sweep's outcome on chips chips
// (the minimized or the given count) with the witness's assignment.
func multiChipResult(r *OptResult, chip []int, chips int) *MultiChipResult {
	return &MultiChipResult{Decision: r.Decision, Chips: chips, Chip: chip, Placement: r.Placement,
		Probes: r.Probes, Stats: r.Stats, Stages: r.Stages, Elapsed: r.Elapsed}
}

// verifyMultiChip checks bounds, same-chip non-overlap and precedence.
func verifyMultiChip(in *model.Instance, chipW, chipH, T, k int, p *model.Placement, chip []int, order *model.Order) error {
	n := in.N()
	for i, t := range in.Tasks {
		if chip[i] < 0 || chip[i] >= k {
			return fmt.Errorf("task %d on chip %d of %d", i, chip[i], k)
		}
		if p.X[i] < 0 || p.Y[i] < 0 || p.S[i] < 0 ||
			p.X[i]+t.W > chipW || p.Y[i]+t.H > chipH || p.S[i]+t.Dur > T {
			return fmt.Errorf("task %d out of bounds", i)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if chip[u] != chip[v] {
				continue
			}
			tu, tv := in.Tasks[u], in.Tasks[v]
			if p.X[u] < p.X[v]+tv.W && p.X[v] < p.X[u]+tu.W &&
				p.Y[u] < p.Y[v]+tv.H && p.Y[v] < p.Y[u]+tu.H &&
				p.S[u] < p.S[v]+tv.Dur && p.S[v] < p.S[u]+tu.Dur {
				return fmt.Errorf("tasks %d and %d collide on chip %d", u, v, chip[u])
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && order.Precedes(u, v) && p.S[u]+in.Tasks[u].Dur > p.S[v] {
				return fmt.Errorf("precedence %d≺%d violated", u, v)
			}
		}
	}
	return nil
}
