package intgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpga3d/internal/graph"
)

// bruteMaxWeightClique enumerates all subsets.
func bruteMaxWeightClique(g *graph.Undirected, w []int) int {
	n := g.N()
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		sum := 0
		ok := true
		for u := 0; u < n && ok; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			sum += w[u]
			for v := u + 1; v < n; v++ {
				if mask&(1<<v) != 0 && !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
		}
		if ok && sum > best {
			best = sum
		}
	}
	return best
}

// pairwise reports whether every two vertices of s are adjacent in g
// (adjacent true: s is a clique) or none are (false: s is stable).
func pairwise(g *graph.Undirected, s graph.Set, adjacent bool) bool {
	vs := s.Slice()
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(vs[i], vs[j]) != adjacent {
				return false
			}
		}
	}
	return true
}

func randGraph(rng *rand.Rand, n int, p float64) *graph.Undirected {
	g := graph.NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestMaxWeightCliqueQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		g := randGraph(rng, n, 0.5)
		w := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(10)
		}
		set, got := MaxWeightClique(g, w)
		if got != bruteMaxWeightClique(g, w) {
			return false
		}
		// The returned set must itself be a clique of the right weight.
		if !pairwise(g, set, true) {
			return false
		}
		sum := 0
		set.ForEach(func(v int) { sum += w[v] })
		return sum == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWeightStableSetQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		g := randGraph(rng, n, 0.5)
		w := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(10)
		}
		set, got := MaxWeightStableSet(g, w)
		if !pairwise(g, set, false) {
			return false
		}
		return got == bruteMaxWeightClique(g.Complement(), w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
