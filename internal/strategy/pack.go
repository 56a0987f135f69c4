package strategy

import (
	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/pack2d"
)

// packStepsPerNode converts a probe's engine node budget into the
// packer's step budget. On the online probes a packer step costs about
// 0.06 µs and an engine node about 8 µs, so a packer that runs out of
// NodeLimit·16 steps adds about a tenth of what the engine may then
// spend. On the random corpus of EXPERIMENTS.md ("A bit-grid 2D
// packer") each doubling of the multiplier around 16 decides about 3%
// more probes at twice the cost.
const packStepsPerNode = 16

// packStepCap is the packer's step budget when the probe has no node
// budget (NodeLimit 0), about 0.13 s: every probe of that corpus the
// packer decided within 5 M steps took at most 1.2 M.
const packStepCap = 1 << 21

// pack2D decides a fixed-schedule probe whose task intervals all share
// one cycle, so that it is a pure 2D packing, with the bit-grid packer
// (internal/pack2d), and returns the witness of a feasible one. The
// decision is Unknown when the probe has another shape, the chip is too
// big for the bit grid, or the packer ran out of steps or was canceled;
// the engine then decides. The steps go to the search span and the
// search.pack2d_steps counter.
func (c *call) pack2D(co core.Options, sp *obs.Span) (*model.Placement, Decision) {
	p := c.p
	if p.C.W > pack2d.MaxW || p.C.H > pack2d.MaxH || !commonCycle(p.In, p.FixedStarts) {
		return nil, Unknown
	}
	limit := int64(packStepCap)
	if co.NodeLimit > 0 {
		limit = int64(bounds.SatMul(int(co.NodeLimit), packStepsPerNode))
	}
	n := p.In.N()
	ws, hs := make([]int, n), make([]int, n)
	for i, t := range p.In.Tasks {
		ws[i], hs[i] = t.W, t.H
	}
	r := pack2d.Pack(co.Ctx, p.C.W, p.C.H, ws, hs, limit)
	sp.SetAttr("pack2d_steps", r.Steps)
	c.pl.env.Metrics.Counter(obs.MetricSearchPack2DSteps).Add(r.Steps)
	switch r.Status {
	case pack2d.Feasible:
		return &model.Placement{X: r.X, Y: r.Y, S: append([]int(nil), p.FixedStarts...)}, Feasible
	case pack2d.Infeasible:
		return nil, Infeasible
	}
	return nil, Unknown
}

// commonCycle reports whether some cycle lies in every task's interval
// [starts[v], starts[v]+Dur): the latest start comes before the
// earliest end.
func commonCycle(in *model.Instance, starts []int) bool {
	if in.N() == 0 {
		return false
	}
	last, first := starts[0], starts[0]+in.Tasks[0].Dur
	for v, t := range in.Tasks {
		last, first = max(last, starts[v]), min(first, starts[v]+t.Dur)
	}
	return last < first
}
