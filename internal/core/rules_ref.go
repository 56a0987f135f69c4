package core

import "fpga3d/internal/graph"

// This file holds the pre-optimization ("reference") implementations of
// the hot-path rules, selected by Options.ReferenceRules. They are the
// straight-line scans the engine shipped with before the incremental
// bitset candidate sets, the version-keyed clique-force and hole-check
// skips and the C4 filters were introduced; rules.go and hole.go branch
// to them, or skip nothing, when Options.ReferenceRules is set. The
// optimized twins in rules.go, hole.go and
// search.go must stay observationally identical — same statuses, same
// witness placements, same Stats (nodes, propagations, per-rule forced
// and conflict counters). TestDifferentialRulePaths enforces this on
// random instances, and cmd/fpgabench's -compare-ref mode enforces it
// on the full benchmark suite while measuring the speedup.

// c4ScanRef is c4Scan without the per-configuration viability filter:
// every quadruple through the changed pair {u,v} runs all three
// configuration checks with fresh state reads.
func (e *engine) c4ScanRef(d, u, v int) {
	for a := 0; a < e.n && e.conflict == noConflict; a++ {
		if a == u || a == v {
			continue
		}
		for b := a + 1; b < e.n && e.conflict == noConflict; b++ {
			if b == u || b == v {
				continue
			}
			// Three configurations, named by their diagonal matching.
			e.c4Check(d, e.pidx[u][v], e.pidx[a][b], e.pidx[u][a], e.pidx[a][v], e.pidx[v][b], e.pidx[b][u])
			e.c4Check(d, e.pidx[u][a], e.pidx[v][b], e.pidx[u][v], e.pidx[v][a], e.pidx[a][b], e.pidx[b][u])
			e.c4Check(d, e.pidx[u][b], e.pidx[v][a], e.pidx[u][v], e.pidx[v][b], e.pidx[b][a], e.pidx[a][u])
		}
	}
}

// pickBranchRef recomputes the per-pair undecided-dimension count with
// an inner loop instead of reading the maintained pairUndecided array.
func (e *engine) pickBranchRef() (int, int) {
	bestP, bestScore := -1, -1
	for p := 0; p < e.npairs; p++ {
		undecided := 0
		for d := 0; d < e.nd; d++ {
			if e.state[d][p] == Unknown {
				undecided++
			}
		}
		if undecided == 0 {
			continue
		}
		score := e.minVol[p]*4 + (e.nd-undecided)*e.minVol[p]
		if score > bestScore {
			bestP, bestScore = p, score
		}
	}
	if bestP < 0 {
		return -1, -1
	}
	return e.pickBranchDim(bestP), bestP
}

// findHoleInRef is findHoleIn allocating all of its working storage per
// call instead of reusing the engine's hole scratch buffers.
func (e *engine) findHoleInRef(adj []graph.Set) []int {
	n := e.n

	// Maximum cardinality search.
	weight := make([]int, n)
	visited := make([]bool, n)
	mcs := make([]int, 0, n)
	for len(mcs) < n {
		best, bestW := -1, -1
		for v := 0; v < n; v++ {
			if !visited[v] && weight[v] > bestW {
				best, bestW = v, weight[v]
			}
		}
		visited[best] = true
		mcs = append(mcs, best)
		adj[best].ForEach(func(u int) {
			if !visited[u] {
				weight[u]++
			}
		})
	}
	pos := make([]int, n) // position in elimination order = reverse MCS
	for i, v := range mcs {
		pos[v] = n - 1 - i
	}

	later := graph.NewSet(n)
	for v := 0; v < n; v++ {
		later.Clear()
		p, pPos := -1, n
		adj[v].ForEach(func(u int) {
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
		bad := later.Clone()
		bad.SubtractWith(adj[p])
		if bad.Empty() {
			continue
		}
		// v has later non-adjacent neighbors p and w: close a hole
		// through v.
		var hole []int
		bad.ForEach(func(w int) {
			if hole == nil {
				if path := shortestAvoiding(adj, p, w, v); path != nil {
					hole = append([]int{v}, path...)
				}
			}
		})
		if hole != nil {
			return hole
		}
	}
	return nil
}

// shortestAvoiding returns a shortest p–w path in the given graph
// restricted to vertices outside N[v] (p and w excepted), or nil if
// none exists. Reference twin of shortestAvoidingFast.
func shortestAvoiding(adj []graph.Set, p, w, v int) []int {
	n := len(adj)
	banned := adj[v].Clone()
	banned.Add(v)
	banned.Remove(p)
	banned.Remove(w)

	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	prev[p] = p
	queue := []int{p}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == w {
			// Reconstruct path p..w.
			var rev []int
			for c := w; c != p; c = prev[c] {
				rev = append(rev, c)
			}
			rev = append(rev, p)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev
		}
		adj[x].ForEach(func(y int) {
			if prev[y] < 0 && !banned.Has(y) {
				prev[y] = x
				queue = append(queue, y)
			}
		})
	}
	return nil
}
