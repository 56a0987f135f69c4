package strategy

import (
	"fpga3d/internal/core"
	"fpga3d/internal/model"
)

// timeDim is the engine dimension BuildProblem puts the time axis on.
const timeDim = 2

// BuildProblem translates an instance+container into the engine's
// three-dimensional problem. fixedStarts, when non-nil, freezes the time
// dimension according to the given schedule (the FixedS variants).
func BuildProblem(in *model.Instance, c model.Container, order *model.Order, fixedStarts []int) *core.Problem {
	n := in.N()
	ws := make([]int, n)
	hs := make([]int, n)
	ds := make([]int, n)
	for i, t := range in.Tasks {
		ws[i], hs[i], ds[i] = t.W, t.H, t.Dur
	}
	p := &core.Problem{
		N: n,
		Dims: []core.Dim{
			{Cap: c.W, Sizes: ws},
			{Cap: c.H, Sizes: hs},
			{Cap: c.T, Sizes: ds, Ordered: true},
		},
	}
	if fixedStarts != nil {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				su, eu := fixedStarts[u], fixedStarts[u]+in.Tasks[u].Dur
				sv, ev := fixedStarts[v], fixedStarts[v]+in.Tasks[v].Dur
				if su < ev && sv < eu {
					p.Fixed = append(p.Fixed, core.FixedEdge{Dim: timeDim, U: u, V: v, State: core.Overlap})
				} else if eu <= sv {
					p.Seeds = append(p.Seeds, core.SeedArc{Dim: timeDim, From: u, To: v})
				} else {
					p.Seeds = append(p.Seeds, core.SeedArc{Dim: timeDim, From: v, To: u})
				}
			}
		}
		return p
	}
	cl := order.Closure()
	for u := 0; u < n; u++ {
		uu := u
		cl.Out(uu).ForEach(func(v int) {
			p.Seeds = append(p.Seeds, core.SeedArc{Dim: timeDim, From: uu, To: v})
		})
	}
	return p
}

// SolutionToPlacement lifts an engine solution's coordinate arrays into
// a placement.
func SolutionToPlacement(s *core.Solution) *model.Placement {
	return &model.Placement{
		X: append([]int(nil), s.Coords[0]...),
		Y: append([]int(nil), s.Coords[1]...),
		S: append([]int(nil), s.Coords[2]...),
	}
}
