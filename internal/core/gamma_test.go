package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/graph"
	"fpga3d/internal/intgraph"
	"fpga3d/internal/model"
)

// gammaClassKey canonicalizes pair p's Γ class: its smallest member
// and p's orientation parity relative to that member.
type gammaClassKey struct {
	min    int
	parity uint8
}

// canonicalClasses reads npairs pairs' classes, given by find (root
// and parity to it), in canonical form.
func canonicalClasses(npairs int, find func(p int) (int, uint8)) []gammaClassKey {
	roots := make([]int, npairs)
	par := make([]uint8, npairs)
	minOf := make([]int, npairs) // by root; pairs run in increasing order
	for p := range minOf {
		minOf[p] = -1
	}
	for p := 0; p < npairs; p++ {
		roots[p], par[p] = find(p)
		if minOf[roots[p]] < 0 {
			minOf[roots[p]] = p
		}
	}
	out := make([]gammaClassKey, npairs)
	for p := range out {
		m := minOf[roots[p]]
		out[p] = gammaClassKey{min: m, parity: par[p] ^ par[m]}
	}
	return out
}

// gammaRecompute builds dimension d's Γ classes from scratch over the
// decided state — every triple a; b, c with ab and ac Disjoint and bc
// Overlap links ab with ac — and reports them in canonical form, or
// conflict when a link contradicts its class.
func gammaRecompute(e *engine, d int) (classes []gammaClassKey, conflict bool) {
	parent := make([]int, e.npairs)
	parity := make([]uint8, e.npairs)
	for p := range parent {
		parent[p] = p
	}
	find := func(p int) (int, uint8) {
		var s uint8
		for parent[p] != p {
			s ^= parity[p]
			p = parent[p]
		}
		return p, s
	}
	st := func(u, v int) EdgeState { return e.state[d][e.pidx[u][v]] }
	for a := 0; a < e.n; a++ {
		for b := 0; b < e.n; b++ {
			for c := b + 1; c < e.n; c++ {
				if a == b || a == c || st(a, b) != Disjoint || st(a, c) != Disjoint || st(b, c) != Overlap {
					continue
				}
				rp, sp := find(e.pidx[a][b])
				rq, sq := find(e.pidx[a][c])
				want := above(a, b) ^ above(a, c)
				if rp == rq {
					conflict = conflict || sp^sq != want
					continue
				}
				parent[rp], parity[rp] = rq, sp^sq^want
			}
		}
	}
	return canonicalClasses(e.npairs, find), conflict
}

// requireGammaRecomputed fails unless the engine's incremental Γ
// classes equal a from-scratch recompute on every dimension.
// At a conflict the incremental links stop early, so only a Γ conflict
// is checked there, against the recompute's.
func requireGammaRecomputed(t *testing.T, label string, e *engine) {
	t.Helper()
	if e.opt.DisableOrientRules {
		return
	}
	recomputedConflict := false
	for d := 0; d < e.nd; d++ {
		want, conflict := gammaRecompute(e, d)
		recomputedConflict = recomputedConflict || conflict
		if e.conflict != noConflict {
			continue
		}
		if conflict {
			t.Fatalf("%s: dim %d: the recompute conflicts, the engine does not", label, d)
		}
		got := canonicalClasses(e.npairs, func(p int) (int, uint8) { return e.gammaFind(d, p) })
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("%s: dim %d pair %d: incremental class %+v, recomputed %+v", label, d, p, got[p], want[p])
			}
		}
	}
	if e.conflict == confGamma && !recomputedConflict {
		t.Fatalf("%s: a gamma conflict that no recompute confirms", label)
	}
}

// gammaEngine returns an engine over n equal boxes in a loose container
// in which only the Γ rule can conflict: the C4 rule is off and
// capacities rule out every clique bound. ordered makes the time axis
// Ordered, without seeds, so no orientation rule fires.
func gammaEngine(n int, ordered bool) *engine {
	return newEngine(prob(n, [3]int{100, 100, 100}, uniformSizes(2, 2, 2), ordered),
		Options{DisableC4Rule: true})
}

// disjointGraph returns dimension d's disjoint graph, with every pair
// still Unknown decided by undecided.
func disjointGraph(e *engine, d int, undecided func(p int) EdgeState) *graph.Undirected {
	g := graph.NewUndirected(e.n)
	for p := 0; p < e.npairs; p++ {
		s := e.state[d][p]
		if s == Unknown {
			s = undecided(p)
		}
		if s == Disjoint {
			g.AddEdge(int(e.pairU[p]), int(e.pairV[p]))
		}
	}
	return g
}

// checkGammaTheory decides every pair of dimension d of an n-box engine
// (with an Ordered time axis when d is time) at random, one at a time in random order with propagation after each,
// and requires a Γ conflict exactly when the disjoint graph is not
// transitively orientable (intgraph.ExtendTransitive), with the
// incremental classes equal to a recompute all along. Then, on a fresh
// engine, it decides a random part of the pairs: a Γ conflict there
// must survive a random completion.
func checkGammaTheory(t *testing.T, label string, rng *rand.Rand, n, d int) {
	t.Helper()
	pOverlap := rng.Float64()
	draw := func(int) EdgeState {
		if rng.Float64() < pOverlap {
			return Overlap
		}
		return Disjoint
	}
	e := gammaEngine(n, d == 2)
	want := make([]EdgeState, e.npairs)
	for p := range want {
		want[p] = draw(p)
	}
	for _, p := range rng.Perm(e.npairs) {
		e.setState(d, p, want[p], confSize)
		e.propagate()
		requireGammaRecomputed(t, label, e)
		if e.conflict != noConflict {
			break
		}
	}
	g := graph.NewUndirected(n)
	for p, s := range want {
		if s == Disjoint {
			g.AddEdge(int(e.pairU[p]), int(e.pairV[p]))
		}
	}
	_, err := intgraph.ExtendTransitive(g, nil)
	if gotConflict := e.conflict == confGamma; gotConflict != (err != nil) {
		t.Fatalf("%s: gamma conflict %v, ExtendTransitive error %v (conflict %v)", label, gotConflict, err, e.conflict)
	}

	part := gammaEngine(n, d == 2)
	fill := rng.Float64()
	for _, p := range rng.Perm(part.npairs) {
		if rng.Float64() < fill {
			part.setState(d, p, draw(p), confSize)
			part.propagate()
			if part.conflict != noConflict {
				break
			}
		}
	}
	if part.conflict == confGamma {
		if _, err := intgraph.ExtendTransitive(disjointGraph(part, d, draw), nil); err == nil {
			t.Fatalf("%s: gamma conflict on a partial state, yet a completion orients", label)
		}
	}
}

// TestGammaClassesTheory is Golumbic's theorem on the engine's state:
// on random complete assignments of up to 8 boxes, a Γ conflict occurs
// iff the disjoint graph has no transitive orientation. The trials take
// the axes in turn, the time axis Ordered.
func TestGammaClassesTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for i := 0; i < 600; i++ {
		checkGammaTheory(t, fmt.Sprintf("trial %d", i), rng, 2+rng.Intn(7), i%3)
	}
}

// FuzzGammaClasses is TestGammaClassesTheory on fuzzed seeds and sizes;
// the seed also picks the axis.
func FuzzGammaClasses(f *testing.F) {
	f.Add(int64(1), uint8(5))
	f.Add(int64(42), uint8(8))
	f.Add(int64(7), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n8 uint8) {
		d := int(uint64(seed) % 3)
		checkGammaTheory(t, fmt.Sprintf("seed %d axis %d", seed, d), rand.New(rand.NewSource(seed)), 2+int(n8%7), d)
	})
}

// deProblem translates the DE benchmark on a W×H chip with horizon T
// into an engine problem, precedence seeded as its transitive closure.
func deProblem(t *testing.T, W, H, T int) *Problem {
	t.Helper()
	in := bench.DE()
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	n := in.N()
	p := &Problem{N: n}
	caps := [3]int{W, H, T}
	for d := 0; d < 3; d++ {
		p.Dims = append(p.Dims, Dim{Cap: caps[d], Sizes: make([]int, n), Ordered: d == 2})
	}
	for b, task := range in.Tasks {
		p.Dims[0].Sizes[b], p.Dims[1].Sizes[b], p.Dims[2].Sizes[b] = task.W, task.H, task.Dur
	}
	cl := order.Closure()
	for u := 0; u < n; u++ {
		cl.Out(u).ForEach(func(v int) { p.Seeds = append(p.Seeds, SeedArc{Dim: 2, From: u, To: v}) })
	}
	return p
}

// TestGammaLeavesOrient: with the Γ classes consistent, every leaf's
// spatial disjoint graph is transitively orientable, so no leaf of the
// frontier corpus or of the DE questions is rejected for orientation.
// (On the ordered time axis the D1/D2 closure already made that so.)
func TestGammaLeavesOrient(t *testing.T) {
	var leaves int64
	check := func(label string, p *Problem) {
		r := Solve(p, Options{NodeLimit: frontierNodeLimit})
		if r.Stats.RejectOrient != 0 {
			t.Fatalf("%s: %d leaves rejected for orientation (%d leaves)", label, r.Stats.RejectOrient, r.Stats.Leaves)
		}
		leaves += r.Stats.Leaves
	}
	rng := rand.New(rand.NewSource(20261016))
	for i := 0; i < 24; i++ {
		check(fmt.Sprintf("frontier %d", i), frontierProblem(rng))
	}
	for _, c := range []model.Container{{W: 16, H: 16, T: 14}, {W: 16, H: 16, T: 13}, {W: 17, H: 17, T: 13},
		{W: 17, H: 17, T: 12}, {W: 31, H: 31, T: 12}, {W: 32, H: 32, T: 6}} {
		check(fmt.Sprintf("DE %dx%dx%d", c.W, c.H, c.T), deProblem(t, c.W, c.H, c.T))
	}
	if leaves == 0 {
		t.Fatal("no search reached a leaf")
	}
}
