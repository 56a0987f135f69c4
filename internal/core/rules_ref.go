package core

// This file holds the pre-optimization ("reference") implementations of
// the hot-path rules, selected by Options.ReferenceRules. They are the
// straight-line scans the engine shipped with before the incremental
// bitset candidate sets, the version-keyed clique-force skips and the
// C4 filters were introduced; rules.go and search.go branch to them, or
// skip nothing, when Options.ReferenceRules is set. The optimized twins
// in rules.go and search.go must stay observationally identical — same
// statuses, same witness placements, same Stats (nodes, propagations,
// per-rule forced and conflict counters). TestDifferentialRulePaths enforces this on
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
