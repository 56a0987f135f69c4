// Package heur implements stage 2 of the paper's framework: fast
// heuristics that try to find a feasible packing before the
// branch-and-bound search is started.
//
// The greedy placer is a precedence-respecting list scheduler over an
// occupancy grid: tasks are taken in priority order (every Rule is
// tried) and each is placed at the earliest start time and bottom-left
// spatial position where its w×h×dur box is free.
//
// The randomized annealing placer (AnnealMinMakespan) searches the
// space of priority permutations around the same scheduling core: it
// restarts from each rule's ordering, perturbs priorities by swaps,
// and accepts worsening moves with a cooling Metropolis criterion.
// It is deterministic per seed and never returns a schedule worse
// than the greedy placer's.
package heur

import (
	"math/bits"
	"sort"

	"fpga3d/internal/graph"
	"fpga3d/internal/model"
)

// MinMakespan greedily minimizes the makespan of in on a W×H chip under
// o, returning the placement and its makespan. ok is false only if some
// task does not fit the chip spatially.
func MinMakespan(in *model.Instance, W, H int, o *model.Order) (*model.Placement, int, bool) {
	if in.MaxW() > W || in.MaxH() > H {
		return nil, 0, false
	}
	// A fully serialized schedule always fits, so TotalDuration is a
	// safe horizon.
	horizon := in.TotalDuration()
	p, makespan := bestPlacement(in, W, H, horizon, o)
	if p == nil {
		return nil, 0, false
	}
	return p, makespan, true
}

// bestPlacement runs every priority rule and keeps the placement with
// the smallest makespan that fits the horizon; returns nil if none fits.
// The rules share one scheduler, and each rule after the first success
// runs under the horizon bestMk−1: a schedule that fits it is the one
// the full horizon gives (each earliest slot that fits the shorter
// horizon is the earliest slot overall), and a rule that needs more
// time cannot win, so it may fail early.
func bestPlacement(in *model.Instance, W, H, T int, o *model.Order) (*model.Placement, int) {
	var best *model.Placement
	bestMk := T + 1
	sc := newScheduler(in, W, H, T, o)
	for _, r := range Rules() {
		p, mk, ok := sc.run(bestMk-1, func(v int) (int, int, int) {
			return r.key(in, o, v)
		})
		if ok && mk < bestMk {
			best, bestMk = p.Clone(), mk
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, bestMk
}

// scheduler is the scheduling core shared by the greedy rules and the
// annealing placer: a precedence-respecting list scheduler that
// repeatedly picks the ready task with the smallest key and places it
// at the earliest-start bottom-left free position of the occupancy
// grid. Its grid, scratch space and placement are reused across passes
// over the same instance and chip, so a pass allocates nothing.
type scheduler struct {
	in   *model.Instance
	o    *model.Order
	grid *occGrid
	// place is the placement every pass fills and returns; a caller
	// that keeps a result past the next pass clones it.
	place *model.Placement
	// Per-pass scratch, indexed by task.
	keys    [][3]int
	pending []int // closure predecessors not yet placed
	finish  []int
	ready   []int // tasks with no pending predecessor, in no order; cap n
}

// newScheduler returns a scheduler for in on a W×H chip whose passes
// may use horizons up to T.
func newScheduler(in *model.Instance, W, H, T int, o *model.Order) *scheduler {
	n := in.N()
	return &scheduler{
		in: in, o: o,
		grid:    newOccGrid(W, H, T),
		place:   model.NewPlacement(n),
		keys:    make([][3]int, n),
		pending: make([]int, n),
		finish:  make([]int, n),
		ready:   make([]int, 0, n),
	}
}

// run performs one list-scheduling pass under the horizon T (at most
// the scheduler's own). It fails (ok=false) when some task cannot be
// placed within T cycles. The placement is the scheduler's own, valid
// until the next pass. Every key ends in a distinct component, so
// the keys are a total order and the ready task with the smallest key
// is unique: a linear scan picks the task a sort would put first.
func (sc *scheduler) run(T int, key func(v int) (int, int, int)) (*model.Placement, int, bool) {
	in, closure := sc.in, sc.o.Closure()
	n := in.N()
	sc.grid.reset(T)
	place := sc.place
	ready := sc.ready[:0]
	for v := 0; v < n; v++ {
		k := &sc.keys[v]
		k[0], k[1], k[2] = key(v)
		sc.pending[v] = closure.In(v).Count()
		if sc.pending[v] == 0 {
			ready = append(ready, v)
		}
	}
	for placed := 0; placed < n; placed++ {
		bi := 0
		for i := 1; i < len(ready); i++ {
			if keyLess(&sc.keys[ready[i]], &sc.keys[ready[bi]]) {
				bi = i
			}
		}
		v := ready[bi]
		ready[bi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		t := in.Tasks[v]
		est := 0
		closure.In(v).ForEach(func(u int) {
			if sc.finish[u] > est {
				est = sc.finish[u]
			}
		})
		x, y, s, ok := sc.grid.findSlot(t.W, t.H, t.Dur, est)
		if !ok {
			return nil, 0, false
		}
		sc.grid.fill(x, y, s, t.W, t.H, t.Dur)
		place.X[v], place.Y[v], place.S[v] = x, y, s
		sc.finish[v] = s + t.Dur
		closure.Out(v).ForEach(func(u int) {
			if sc.pending[u]--; sc.pending[u] == 0 {
				ready = append(ready, u)
			}
		})
	}
	return place, place.Makespan(in), true
}

// keyLess orders two 3-part keys lexicographically.
func keyLess(a, b *[3]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// sortByKey sorts idx ascending by a 3-part lexicographic key. Every
// key in this package ends in a distinct component, so the order is
// total and the sort deterministic.
func sortByKey(idx []int, key func(v int) (int, int, int)) {
	sort.Slice(idx, func(a, b int) bool {
		var ka, kb [3]int
		ka[0], ka[1], ka[2] = key(idx[a])
		kb[0], kb[1], kb[2] = key(idx[b])
		return keyLess(&ka, &kb)
	})
}

// occGrid is a W×H×T occupancy bitmap. When W ≤ 64 each (cycle, row) is
// a single uint64 word and slot queries work on whole rows; wider chips
// fall back to a boolean grid.
//
// A slot query tries only the start times at which the free space can
// grow: est itself and the cycles at which some filled box ends. If no
// box ends at s > est, every cell busy at s−1 is busy at s as well, so
// a box that fits at s also fits at s−1 and s is not the earliest
// start. Both layouts share this skip.
type occGrid struct {
	W, H, T int
	words   []uint64  // [cycle*H + row], W ≤ 64 fast path
	cells   []bool    // [(cycle*H + row)*W + x], fallback
	ends    graph.Set // cycles at which a filled box ends
	rows    []uint64  // findSlot scratch: per-row OR over a start's cycles
	top     int       // cycles [0, top) may hold filled cells
}

func newOccGrid(W, H, T int) *occGrid {
	g := &occGrid{W: W, H: H, T: T, ends: graph.NewSet(T + 1)}
	if W <= 64 {
		g.words = make([]uint64, T*H)
		g.rows = make([]uint64, H)
	} else {
		g.cells = make([]bool, T*H*W)
	}
	return g
}

// reset empties the grid and sets its horizon to T, which must not
// exceed the horizon it was built with.
func (g *occGrid) reset(T int) {
	if g.words != nil {
		clear(g.words[:g.top*g.H])
	} else {
		clear(g.cells[:g.top*g.H*g.W])
	}
	g.ends.Clear()
	g.top = 0
	g.T = T
}

// runMask returns a bitmask of the x positions at which w consecutive
// free bits start within the free-mask, restricted to x ≤ W−w. The run
// length doubles with every shift: if m marks the starts of runs of
// length k and step ≤ k, m & m>>step marks the starts of runs of
// length k+step.
func runMask(free uint64, w, W int) uint64 {
	m := free
	for k := 1; k < w; {
		step := min(k, w-k)
		m &= m >> uint(step)
		k += step
	}
	if W-w+1 < 64 {
		m &= (1 << uint(W-w+1)) - 1
	}
	return m
}

// findSlot returns the earliest-start, bottom-left free position for a
// w×h×dur box with start ≥ est.
func (g *occGrid) findSlot(w, h, dur, est int) (x, y, s int, ok bool) {
	for s = est; s+dur <= g.T; s = g.nextEnd(s) {
		if x, y, ok = g.fitAt(w, h, dur, s); ok {
			return x, y, s, true
		}
	}
	return 0, 0, 0, false
}

// nextEnd returns the first cycle after s at which a filled box ends,
// or a cycle past the horizon when there is none.
func (g *occGrid) nextEnd(s int) int {
	if t := g.ends.Next(s + 1); t >= 0 {
		return t
	}
	return g.T + 1
}

// fitAt returns the bottom-left position at which a w×h box is free
// throughout the cycles [s, s+dur).
func (g *occGrid) fitAt(w, h, dur, s int) (x, y int, ok bool) {
	if g.words == nil {
		for y = 0; y+h <= g.H; y++ {
			for x = 0; x+w <= g.W; x++ {
				if g.regionFree(x, y, s, w, h, dur) {
					return x, y, true
				}
			}
		}
		return 0, 0, false
	}
	// A cell is busy for the box if it is busy in any of its cycles, so
	// the box's cycles collapse into one OR per row; a window of h rows
	// then collapses the same way, and one run mask of the result
	// answers every x at once.
	rows := g.rows
	clear(rows)
	for t := s; t < s+dur; t++ {
		for r, b := range g.words[t*g.H : (t+1)*g.H] {
			rows[r] |= b
		}
	}
	for y = 0; y+h <= g.H; y++ {
		var busy uint64
		for _, b := range rows[y : y+h] {
			busy |= b
		}
		if m := runMask(^busy, w, g.W); m != 0 {
			return bits.TrailingZeros64(m), y, true
		}
	}
	return 0, 0, false
}

func (g *occGrid) regionFree(x, y, s, w, h, dur int) bool {
	for t := s; t < s+dur; t++ {
		for r := y; r < y+h; r++ {
			row := g.cells[(t*g.H+r)*g.W:]
			for c := x; c < x+w; c++ {
				if row[c] {
					return false
				}
			}
		}
	}
	return true
}

func (g *occGrid) fill(x, y, s, w, h, dur int) {
	if dur <= 0 {
		return
	}
	e := s + dur
	g.top = max(g.top, e)
	g.ends.Add(e)
	if g.words != nil {
		mask := (uint64(1)<<uint(w) - 1) << uint(x)
		if w == 64 {
			mask = ^uint64(0)
		}
		for t := s; t < s+dur; t++ {
			for r := y; r < y+h; r++ {
				g.words[t*g.H+r] |= mask
			}
		}
		return
	}
	for t := s; t < s+dur; t++ {
		for r := y; r < y+h; r++ {
			row := g.cells[(t*g.H+r)*g.W:]
			for c := x; c < x+w; c++ {
				row[c] = true
			}
		}
	}
}
