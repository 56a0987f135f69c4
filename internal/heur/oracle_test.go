package heur

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

// This file keeps the straightforward list scheduler as a reference
// oracle: a scalar occupancy grid that tries every start time and
// ANDs one run mask per (cycle, row), a ready set rebuilt from the
// closure at every step and sorted by key, and a fresh grid for every
// rule and every annealing proposal. The production kernels must agree
// with it bit for bit.

// refGrid is the reference W×H×T occupancy grid.
type refGrid struct {
	W, H, T int
	words   [][]uint64 // [cycle][row], W ≤ 64
	cells   [][]bool   // [cycle][row*W+x], W > 64
}

func newRefGrid(W, H, T int) *refGrid {
	g := &refGrid{W: W, H: H, T: T}
	if W <= 64 {
		g.words = make([][]uint64, T)
		for t := range g.words {
			g.words[t] = make([]uint64, H)
		}
	} else {
		g.cells = make([][]bool, T)
		for t := range g.cells {
			g.cells[t] = make([]bool, H*W)
		}
	}
	return g
}

// refRunMask shifts once per unit of run length.
func refRunMask(free uint64, w, W int) uint64 {
	m := free
	for i := 1; i < w; i++ {
		m &= free >> uint(i)
	}
	if W-w+1 < 64 {
		m &= (1 << uint(W-w+1)) - 1
	}
	return m
}

func (g *refGrid) findSlot(w, h, dur, est int) (x, y, s int, ok bool) {
	for s = est; s+dur <= g.T; s++ {
		for y = 0; y+h <= g.H; y++ {
			if g.words != nil {
				m := ^uint64(0)
				for t := s; t < s+dur && m != 0; t++ {
					for r := y; r < y+h && m != 0; r++ {
						m &= refRunMask(^g.words[t][r], w, g.W)
					}
				}
				if m != 0 {
					return trailingZeros(m), y, s, true
				}
			} else {
				for x = 0; x+w <= g.W; x++ {
					if g.regionFree(x, y, s, w, h, dur) {
						return x, y, s, true
					}
				}
			}
		}
	}
	return 0, 0, 0, false
}

func trailingZeros(m uint64) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}

func (g *refGrid) regionFree(x, y, s, w, h, dur int) bool {
	for t := s; t < s+dur; t++ {
		for r := y; r < y+h; r++ {
			for c := x; c < x+w; c++ {
				if g.cells[t][r*g.W+c] {
					return false
				}
			}
		}
	}
	return true
}

func (g *refGrid) fill(x, y, s, w, h, dur int) {
	for t := s; t < s+dur; t++ {
		for r := y; r < y+h; r++ {
			for c := x; c < x+w; c++ {
				if g.words != nil {
					g.words[t][r] |= 1 << uint(c)
				} else {
					g.cells[t][r*g.W+c] = true
				}
			}
		}
	}
}

// refListSchedule is the reference list scheduler.
func refListSchedule(in *model.Instance, W, H, T int, o *model.Order, key func(v int) (int, int, int)) (*model.Placement, int, bool) {
	n := in.N()
	occ := newRefGrid(W, H, T)
	place := model.NewPlacement(n)
	done := make([]bool, n)
	finish := make([]int, n)
	for placed := 0; placed < n; placed++ {
		var ready []int
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			ok := true
			o.Closure().In(v).ForEach(func(u int) {
				if !done[u] {
					ok = false
				}
			})
			if ok {
				ready = append(ready, v)
			}
		}
		sort.Slice(ready, func(a, b int) bool {
			a1, a2, a3 := key(ready[a])
			b1, b2, b3 := key(ready[b])
			if a1 != b1 {
				return a1 < b1
			}
			if a2 != b2 {
				return a2 < b2
			}
			return a3 < b3
		})
		v := ready[0]
		t := in.Tasks[v]
		est := 0
		o.Closure().In(v).ForEach(func(u int) {
			est = max(est, finish[u])
		})
		x, y, s, ok := occ.findSlot(t.W, t.H, t.Dur, est)
		if !ok {
			return nil, 0, false
		}
		occ.fill(x, y, s, t.W, t.H, t.Dur)
		place.X[v], place.Y[v], place.S[v] = x, y, s
		finish[v] = s + t.Dur
		done[v] = true
	}
	return place, place.Makespan(in), true
}

// refBestPlacement runs every rule on a fresh grid over the full
// horizon.
func refBestPlacement(in *model.Instance, W, H, T int, o *model.Order) (*model.Placement, int) {
	var best *model.Placement
	bestMk := T + 1
	for _, r := range Rules() {
		p, mk, ok := refListSchedule(in, W, H, T, o, func(v int) (int, int, int) { return r.key(in, o, v) })
		if ok && mk < bestMk {
			best, bestMk = p, mk
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, bestMk
}

// refAnneal is AnnealMinMakespan's walk over the reference scheduler.
func refAnneal(in *model.Instance, W, H int, o *model.Order, opt AnnealOptions) (*model.Placement, int, bool) {
	if in.MaxW() > W || in.MaxH() > H {
		return nil, 0, false
	}
	best, bestMk := refBestPlacement(in, W, H, in.TotalDuration(), o)
	if best == nil {
		return nil, 0, false
	}
	n := in.N()
	if n < 2 || (opt.Target > 0 && bestMk <= opt.Target) {
		return best, bestMk, true
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	iters := opt.Iterations
	if iters <= 0 {
		iters = DefaultAnnealIterations
	}
	restarts := opt.Restarts
	if restarts <= 0 {
		restarts = len(ruleNames)
	}
	rng := rand.New(rand.NewSource(seed))
	horizon := bestMk
	prio := make([]int, n)
	decode := func() (*model.Placement, int, bool) {
		return refListSchedule(in, W, H, horizon, o, func(v int) (int, int, int) { return prio[v], v, 0 })
	}
	for r := 0; r < restarts; r++ {
		initPriorities(prio, in, o, Rule(r%len(ruleNames)))
		if r >= len(ruleNames) {
			for k := 0; k < n/2+1; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				prio[i], prio[j] = prio[j], prio[i]
			}
		}
		cur, curMk, okr := decode()
		if !okr {
			continue
		}
		if curMk < bestMk {
			best, bestMk = cur, curMk
		}
		for it := 0; it < iters; it++ {
			if opt.Target > 0 && bestMk <= opt.Target {
				return best, bestMk, true
			}
			temp := 2.0 * math.Pow(0.02, float64(it)/float64(iters))
			i, j := rng.Intn(n), rng.Intn(n)
			for i == j {
				j = rng.Intn(n)
			}
			prio[i], prio[j] = prio[j], prio[i]
			cand, mk, okc := decode()
			if !okc || !accept(mk-curMk, temp, rng) {
				prio[i], prio[j] = prio[j], prio[i]
				continue
			}
			cur, curMk = cand, mk
			if curMk < bestMk {
				best, bestMk = cur, curMk
			}
		}
	}
	return best, bestMk, true
}

func samePlacement(a, b *model.Placement) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for v := range a.X {
		if a.X[v] != b.X[v] || a.Y[v] != b.Y[v] || a.S[v] != b.S[v] {
			return false
		}
	}
	return len(a.X) == len(b.X)
}

// gridOp is one step of a random occupancy sequence: a slot query for
// a w×h×dur box from est, followed by a fill of the slot found, or
// (when force is set) a fill of the box at (x, y, s) whether or not it
// overlaps what is there, as the online layer's clamped residents may.
type gridOp struct {
	w, h, dur, est int
	force          bool
	x, y, s        int
}

// checkOccupancy replays ops on the production grid (through the
// exported Occupancy) and on the reference grid and reports the first
// query on which they disagree.
func checkOccupancy(t *testing.T, W, H, T int, ops []gridOp) {
	t.Helper()
	occ := NewOccupancy(W, H, T)
	ref := newRefGrid(W, H, T)
	for i, op := range ops {
		if op.force {
			occ.Fill(op.x, op.y, op.s, op.w, op.h, op.dur)
			ref.fill(op.x, op.y, op.s, op.w, op.h, op.dur)
			continue
		}
		x, y, s, ok := occ.FindSlot(op.w, op.h, op.dur, op.est)
		rx, ry, rs, rok := ref.findSlot(op.w, op.h, op.dur, op.est)
		if x != rx || y != ry || s != rs || ok != rok {
			t.Fatalf("W=%d H=%d T=%d op %d %+v: slot (%d,%d,%d,%v), reference (%d,%d,%d,%v)",
				W, H, T, i, op, x, y, s, ok, rx, ry, rs, rok)
		}
		if ok {
			occ.Fill(x, y, s, op.w, op.h, op.dur)
			ref.fill(x, y, s, op.w, op.h, op.dur)
		}
	}
}

// randomOps draws a random occupancy sequence for a W×H×T grid.
func randomOps(rng *rand.Rand, W, H, T, n int) []gridOp {
	ops := make([]gridOp, n)
	for i := range ops {
		op := gridOp{
			w:   1 + rng.Intn(W),
			h:   1 + rng.Intn(H),
			dur: rng.Intn(T/2 + 2),
			est: rng.Intn(T + 1),
		}
		if rng.Intn(3) != 0 {
			// Small boxes keep the grid from filling up at once.
			op.w = 1 + rng.Intn(min(W, 1+W/3))
			op.h = 1 + rng.Intn(min(H, 1+H/3))
		}
		if rng.Intn(2) == 0 {
			op.est = rng.Intn(T/3 + 1)
		}
		if rng.Intn(8) == 0 && op.dur > 0 && op.dur <= T {
			op.force = true
			op.x = rng.Intn(W - op.w + 1)
			op.y = rng.Intn(H - op.h + 1)
			op.s = rng.Intn(T - op.dur + 1)
		}
		ops[i] = op
	}
	return ops
}

// TestOccupancyMatchesReference replays random fill sequences, chips
// up to 70 wide (both layouts and the 64-bit edge) and nonzero earliest
// starts, on the production and reference grids.
func TestOccupancyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	if testing.Short() {
		n = 500
	}
	for c := 0; c < n; c++ {
		W := 1 + rng.Intn(70)
		if c%5 == 0 {
			W = 62 + rng.Intn(4) // 62..65 around the word edge
		}
		H := 1 + rng.Intn(12)
		T := 1 + rng.Intn(24)
		checkOccupancy(t, W, H, T, randomOps(rng, W, H, T, 1+rng.Intn(30)))
	}
}

func TestRunMaskMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for c := 0; c < 20000; c++ {
		W := 1 + rng.Intn(64)
		w := 1 + rng.Intn(W)
		free := rng.Uint64() | rng.Uint64() // mostly free bits
		if c%3 == 0 {
			free = ^(uint64(1) << uint(rng.Intn(64)))
		}
		if got, want := runMask(free, w, W), refRunMask(free, w, W); got != want {
			t.Fatalf("runMask(%b, %d, %d) = %b, reference %b", free, w, W, got, want)
		}
	}
}

// FuzzOccupancy decodes the input into a grid and an operation
// sequence and checks slot queries against the reference grid.
func FuzzOccupancy(f *testing.F) {
	f.Add([]byte{8, 4, 6, 3, 2, 2, 0, 8, 4, 1, 0})
	f.Add([]byte{70, 3, 5, 70, 3, 2, 0, 10, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		W, H, T := 1+int(data[0])%70, 1+int(data[1])%16, 1+int(data[2])%32
		var ops []gridOp
		for b := data[3:]; len(b) >= 4; b = b[4:] {
			op := gridOp{
				w:   1 + int(b[0])%W,
				h:   1 + int(b[1])%H,
				dur: int(b[2]) % (T + 1),
				est: int(b[3]) % (T + 1),
			}
			if b[3] >= 0xf0 && op.dur > 0 {
				op.force = true
				op.x = int(b[0]) % (W - op.w + 1)
				op.y = int(b[1]) % (H - op.h + 1)
				op.s = int(b[3]) % (T - op.dur + 1)
			}
			ops = append(ops, op)
		}
		checkOccupancy(t, W, H, T, ops)
	})
}

// oracleCorpus returns the bench instances and random ones, each with
// a chip to schedule it on.
func oracleCorpus() []struct {
	in   *model.Instance
	W, H int
} {
	type entry = struct {
		in   *model.Instance
		W, H int
	}
	out := []entry{
		{bench.DE(), 17, 17}, {bench.DE(), 32, 32},
		{bench.VideoCodec(), 64, 64},
		{bench.FIR(8), 17, 17}, {bench.FFT(8), 17, 17}, {bench.Biquad(3), 17, 17},
		{bench.DE(), 80, 20}, // boolean-grid layout
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		in := bench.Random(rng, 3+rng.Intn(10), 5, 5, 0.25)
		W, H := 5+rng.Intn(6), 5+rng.Intn(6)
		if i%10 == 0 {
			W = 65 + rng.Intn(6)
		}
		out = append(out, entry{in, W, H})
	}
	return out
}

// TestGreedyMatchesReference: the greedy placer, under a generous
// horizon and under a tight one, and the annealer return placements
// bit-identical to the reference scheduler's.
func TestGreedyMatchesReference(t *testing.T) {
	for i, c := range oracleCorpus() {
		o := mustOrder(t, c.in)
		horizon := c.in.TotalDuration()
		p, mk := bestPlacement(c.in, c.W, c.H, horizon, o)
		rp, rmk := refBestPlacement(c.in, c.W, c.H, horizon, o)
		if mk != rmk || !samePlacement(p, rp) {
			t.Fatalf("case %d (%s): greedy makespan %d, reference %d (placements equal: %v)",
				i, c.in.Name, mk, rmk, samePlacement(p, rp))
		}
		for _, T := range []int{rmk - 1, rmk, rmk + 2} {
			if T < 0 {
				continue
			}
			p, mk := bestPlacement(c.in, c.W, c.H, T, o)
			rp, rmk := refBestPlacement(c.in, c.W, c.H, T, o)
			if mk != rmk || !samePlacement(p, rp) {
				t.Fatalf("case %d (%s) T=%d: greedy makespan %d, reference %d", i, c.in.Name, T, mk, rmk)
			}
		}
		for _, seed := range []int64{1, 7} {
			opt := AnnealOptions{Seed: seed, Iterations: 40}
			ap, amk, aok := AnnealMinMakespan(context.Background(), c.in, c.W, c.H, o, opt)
			rp, rmk, rok := refAnneal(c.in, c.W, c.H, o, opt)
			if aok != rok || amk != rmk || !samePlacement(ap, rp) {
				t.Fatalf("case %d (%s) seed %d: anneal makespan %d (ok %v), reference %d (ok %v)",
					i, c.in.Name, seed, amk, aok, rmk, rok)
			}
		}
	}
}
