// Package intgraph implements the structural graph algorithms behind
// packing classes: chordality testing, interval-graph recognition,
// exact maximum-weight cliques and stable sets, and — central to the
// paper's precedence extension — transitive orientations of
// comparability graphs that extend a given partial order, computed by
// closing the path (D1) and transitivity (D2) implication rules.
package intgraph

import "fpga3d/internal/graph"

// MCSOrder returns a maximum-cardinality-search order of g: vertices are
// visited one at a time, always picking a vertex with the largest number
// of already-visited neighbors.
func MCSOrder(g *graph.Undirected) []int {
	n := g.N()
	weight := make([]int, n)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestW := -1, -1
		for v := 0; v < n; v++ {
			if !visited[v] && weight[v] > bestW {
				best, bestW = v, weight[v]
			}
		}
		visited[best] = true
		order = append(order, best)
		g.Neighbors(best).ForEach(func(u int) {
			if !visited[u] {
				weight[u]++
			}
		})
	}
	return order
}

// IsChordal reports whether g is chordal (every cycle of length ≥ 4 has a
// chord), using the Tarjan–Yannakakis test: a graph is chordal iff the
// reverse of a maximum-cardinality-search order is a perfect elimination
// order.
func IsChordal(g *graph.Undirected) bool {
	n := g.N()
	mcs := MCSOrder(g)
	// Elimination order = reverse of MCS order.
	pos := make([]int, n) // position in elimination order
	for i, v := range mcs {
		pos[v] = n - 1 - i
	}
	later := graph.NewSet(n)
	for v := 0; v < n; v++ {
		// later = neighbors of v eliminated after v.
		later.Clear()
		p, pPos := -1, n
		g.Neighbors(v).ForEach(func(u int) {
			if pos[u] > pos[v] {
				later.Add(u)
				if pos[u] < pPos {
					p, pPos = u, pos[u]
				}
			}
		})
		if p < 0 {
			continue
		}
		later.Remove(p)
		if !later.SubsetOf(g.Neighbors(p)) {
			return false
		}
	}
	return true
}
