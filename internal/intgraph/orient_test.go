package intgraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"fpga3d/internal/graph"
)

func TestTransitiveOrientKnownGraphs(t *testing.T) {
	// Paths, complete graphs, even cycles and bipartite graphs are
	// comparability graphs; odd holes are not.
	for _, tc := range []struct {
		name string
		g    *graph.Undirected
		want bool
	}{
		{"P4", path(4), true},
		{"K4", complete(4), true},
		{"C4", cycle(4), true},
		{"C6", cycle(6), true},
		{"C5", cycle(5), false},
		{"C7", cycle(7), false},
		{"empty", graph.NewUndirected(4), true},
	} {
		if _, err := ExtendTransitive(tc.g, nil); (err == nil) != tc.want {
			t.Errorf("ExtendTransitive(%s, nil) = %v, want comparability %v", tc.name, err, tc.want)
		}
	}
}

func TestTransitiveOrientProducesValidOrientation(t *testing.T) {
	g := cycle(6)
	o, err := ExtendTransitive(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !o.IsTransitive() || !o.IsAcyclic() {
		t.Fatal("orientation not a strict partial order")
	}
	// Every edge oriented exactly once, every non-edge untouched.
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			cnt := 0
			if o.HasArc(u, v) {
				cnt++
			}
			if o.HasArc(v, u) {
				cnt++
			}
			want := 0
			if g.HasEdge(u, v) {
				want = 1
			}
			if cnt != want {
				t.Fatalf("edge {%d,%d}: %d orientations, want %d", u, v, cnt, want)
			}
		}
	}
}

// TestExtendTransitiveFigure5 reproduces the obstruction of Figure 5 /
// Section 4.1: the path v1–v2–v3–v4 is a comparability graph, but the
// partial order {v1→v2, v4→v3} cannot be extended — the path implication
// class forces v1→v2 ⟹ v3→v2 ⟹ v3→v4, contradicting v4→v3.
func TestExtendTransitiveFigure5(t *testing.T) {
	g := path(4) // edges {0,1}, {1,2}, {2,3}
	seeds := graph.NewDigraph(4)
	seeds.AddArc(0, 1)
	seeds.AddArc(3, 2)
	if _, err := ExtendTransitive(g, seeds); !errors.Is(err, ErrNotExtendable) {
		t.Fatalf("expected ErrNotExtendable, got %v", err)
	}

	// A single seed is always extendable on a path.
	seeds1 := graph.NewDigraph(4)
	seeds1.AddArc(0, 1)
	o, err := ExtendTransitive(g, seeds1)
	if err != nil {
		t.Fatal(err)
	}
	if !o.HasArc(0, 1) {
		t.Fatal("orientation does not extend the seed")
	}
	// The forced implications of the path.
	if !o.HasArc(2, 1) || !o.HasArc(2, 3) {
		t.Fatalf("path implications not honored: arcs %v %v", o.HasArc(2, 1), o.HasArc(2, 3))
	}
}

func TestExtendTransitiveSeedOnNonEdge(t *testing.T) {
	g := path(3) // edges {0,1}, {1,2}; {0,2} is a non-edge
	seeds := graph.NewDigraph(3)
	seeds.AddArc(0, 2)
	if _, err := ExtendTransitive(g, seeds); !errors.Is(err, ErrNotExtendable) {
		t.Fatalf("seed on non-edge must fail, got %v", err)
	}
}

func TestExtendTransitiveConflictingSeeds(t *testing.T) {
	g := complete(3)
	seeds := graph.NewDigraph(3)
	seeds.AddArc(0, 1)
	seeds.AddArc(1, 2)
	seeds.AddArc(2, 0) // cycle in a triangle: transitivity conflict
	if _, err := ExtendTransitive(g, seeds); !errors.Is(err, ErrNotExtendable) {
		t.Fatalf("cyclic seeds must fail, got %v", err)
	}
}

// randomPosetGraph builds a comparability graph from a random DAG with
// forward arcs, returning the graph and the full transitive orientation.
func randomPosetGraph(rng *rand.Rand, n int, p float64) (*graph.Undirected, *graph.Digraph) {
	d := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				d.AddArc(u, v)
			}
		}
	}
	c := d.TransitiveClosure()
	g := graph.NewUndirected(n)
	for u := 0; u < n; u++ {
		c.Out(u).ForEach(func(v int) { g.AddEdge(u, v) })
	}
	return g, c
}

func TestExtendTransitiveQuickOnPosets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g, full := randomPosetGraph(rng, n, 0.4)
		// Seed with a random sub-order of the known valid orientation:
		// extension must succeed and honor every seed.
		seeds := graph.NewDigraph(n)
		for u := 0; u < n; u++ {
			uu := u
			full.Out(uu).ForEach(func(v int) {
				if rng.Intn(2) == 0 {
					seeds.AddArc(uu, v)
				}
			})
		}
		o, err := ExtendTransitive(g, seeds)
		if err != nil {
			return false
		}
		if !o.IsTransitive() || !o.IsAcyclic() {
			return false
		}
		ok := true
		for u := 0; u < n && ok; u++ {
			seeds.Out(u).ForEach(func(v int) {
				if !o.HasArc(u, v) {
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsComparabilityQuickAgainstBruteForce(t *testing.T) {
	// Brute force: try all orientations of the edges (≤ 2^10).
	brute := func(g *graph.Undirected) bool {
		type edge struct{ u, v int }
		var edges []edge
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if g.HasEdge(u, v) {
					edges = append(edges, edge{u, v})
				}
			}
		}
		if len(edges) > 12 {
			return true // too big to enumerate: skip
		}
		for mask := 0; mask < 1<<len(edges); mask++ {
			d := graph.NewDigraph(g.N())
			for i, e := range edges {
				if mask&(1<<i) != 0 {
					d.AddArc(e.u, e.v)
				} else {
					d.AddArc(e.v, e.u)
				}
			}
			if d.IsTransitive() {
				return true
			}
		}
		return false
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5) // up to 6 vertices
		g := randGraph(rng, n, 0.45)
		_, err := ExtendTransitive(g, nil)
		return (err == nil) == brute(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// realize lays out intervals of the given lengths as Theorem 1 does
// (core.extract in production): a transitive orientation of g's
// complement that extends seeds, then longest-path positions over it.
func realize(g *graph.Undirected, lengths []int, seeds *graph.Digraph) ([]int, error) {
	orient, err := ExtendTransitive(g.Complement(), seeds)
	if err != nil {
		return nil, err
	}
	pos, ok := orient.LongestPathFrom(lengths)
	if !ok {
		return nil, errors.New("orientation is cyclic")
	}
	return pos, nil
}

func TestRealize(t *testing.T) {
	// Three mutually overlapping intervals plus one after them.
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	lengths := []int{3, 4, 5, 2}
	seeds := graph.NewDigraph(4)
	seeds.AddArc(0, 3) // 3 comes after 0

	pos, err := realize(g, lengths, seeds)
	if err != nil {
		t.Fatal(err)
	}
	check := func(u, v int) bool { // intervals overlap?
		return pos[u] < pos[v]+lengths[v] && pos[v] < pos[u]+lengths[u]
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if !g.HasEdge(u, v) && check(u, v) {
				t.Fatalf("non-edge {%d,%d} realized overlapping (pos=%v)", u, v, pos)
			}
		}
	}
	if pos[3] < pos[0]+lengths[0] {
		t.Fatalf("seed 0→3 violated: pos=%v", pos)
	}
}

func TestRealizeQuickOnIntervalGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		starts := make([]int, n)
		lengths := make([]int, n)
		for i := range starts {
			starts[i] = rng.Intn(15)
			lengths[i] = 1 + rng.Intn(6)
		}
		g := intervalGraph(starts, lengths)
		pos, err := realize(g, lengths, nil)
		if err != nil {
			return false
		}
		// Non-edges must be realized disjoint.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				overlap := pos[u] < pos[v]+lengths[v] && pos[v] < pos[u]+lengths[u]
				if !g.HasEdge(u, v) && overlap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
