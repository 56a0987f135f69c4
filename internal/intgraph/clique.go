package intgraph

import (
	"sort"

	"fpga3d/internal/graph"
)

// MaxWeightClique returns a maximum-weight clique of g under the given
// non-negative vertex weights, together with its total weight.
// Exact branch-and-bound; intended for the small graphs (n ≲ 40) that
// arise from module sets.
func MaxWeightClique(g *graph.Undirected, w []int) (graph.Set, int) {
	s := newCliqueSearch(g, w)
	cand := graph.NewSet(g.N())
	for v := 0; v < g.N(); v++ {
		cand.Add(v)
	}
	s.expand(graph.NewSet(g.N()), cand, 0)
	return s.best, s.bestW
}

// MaxWeightStableSet returns a maximum-weight stable (independent) set of
// g, computed as a maximum-weight clique of the complement.
func MaxWeightStableSet(g *graph.Undirected, w []int) (graph.Set, int) {
	return MaxWeightClique(g.Complement(), w)
}

type cliqueSearch struct {
	g     *graph.Undirected
	w     []int
	order []int // vertices sorted by weight descending
	best  graph.Set
	bestW int
}

func newCliqueSearch(g *graph.Undirected, w []int) *cliqueSearch {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	return &cliqueSearch{g: g, w: w, order: order, best: graph.NewSet(g.N()), bestW: 0}
}

func (s *cliqueSearch) expand(cur, cand graph.Set, curW int) {
	if curW > s.bestW {
		s.bestW = curW
		s.best = cur.Clone()
	}
	// Bound: current weight plus all remaining candidates.
	rem := 0
	cand.ForEach(func(v int) { rem += s.w[v] })
	if curW+rem <= s.bestW {
		return
	}
	for _, v := range s.order {
		if !cand.Has(v) {
			continue
		}
		cand.Remove(v)
		// Re-check bound after removal: v might have carried the slack.
		newCand := cand.Clone()
		newCand.IntersectWith(s.g.Neighbors(v))
		cur.Add(v)
		s.expand(cur, newCand, curW+s.w[v])
		cur.Remove(v)
	}
}
