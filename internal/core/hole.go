package core

import "fpga3d/internal/graph"

// The hole rule generalizes the C4 propagation to chordless cycles of
// arbitrary length. A cycle of decided overlap edges that is induced in
// the decided overlap graph can only be chorded by pairs that are still
// Unknown; once all its chords are Disjoint the final component graph is
// guaranteed non-chordal (a C1 violation), and with exactly one Unknown
// chord left, that chord is forced to Overlap.
//
// Holes are located with a chordality certificate: if the reverse of a
// maximum-cardinality-search order fails the perfect-elimination check
// at a vertex v with two later non-adjacent neighbors p and w, then v
// together with a shortest p–w path in G − (N[v] ∖ {p, w}) forms an
// induced cycle of length ≥ 4 (shortest paths are induced, and v's other
// neighbors are excluded).

// holeCheck runs hole detection on every dimension until no further
// forcing applies. Called once per search node, after event propagation.
// It hunts holes of the overlap graph: an induced cycle of length ≥ 4
// whose chords are all Disjoint can never become chordal (C1,
// chordality half). C1's comparability half is the Γ rule's (gamma.go),
// which refutes every odd antihole — an induced odd cycle of length ≥ 5
// in the disjoint graph — once its chords are Overlap.
func (e *engine) holeCheck() {
	if e.opt.DisableHoleRule {
		return
	}
	for d := 0; d < e.nd && e.conflict == noConflict; d++ {
		e.holeCheckDim(d)
	}
}

// holeMemo keys a holeCheckDim verdict that fired nothing: own is the
// overlap version of the dimension, other its disjoint version, or -1
// when the verdict read no edge states.
type holeMemo struct{ own, other int64 }

// holeCheckDim repeatedly extracts holes of dimension d's overlap graph.
// A hole is conclusive when all of its chords are decided Disjoint (the
// breaking value Overlap cannot appear anymore): conflict with zero
// open chords, forcing the chord Overlap with exactly one.
//
// The production path skips a dimension whose last verdict fired
// nothing and whose inputs have not moved since (equal versions mean
// identical adjacency): a chordal graph depends on the overlap
// adjacency alone; a hole with two or more open chords also on the
// chord states, so on both adjacencies.
func (e *engine) holeCheckDim(d int) {
	adj, memo := e.ovAdj[d], &e.holeSeen[d]
	ref := e.opt.ReferenceRules
	if !ref && memo.own == e.verOv[d] && (memo.other < 0 || memo.other == e.verDis[d]) {
		e.skips.holeDims++
		return
	}
	for e.conflict == noConflict {
		hole := e.findHoleIn(adj)
		if hole == nil {
			// Chordal, or no certificate; deeper search decides.
			if !ref {
				*memo = holeMemo{own: e.verOv[d], other: -1}
			}
			return
		}
		unknownPair, unknowns := -1, 0
		k := len(hole)
		for i := 0; i < k && unknowns < 2; i++ {
			for j := i + 2; j < k; j++ {
				if i == 0 && j == k-1 {
					continue // cycle edge, not a chord
				}
				p := e.pidx[hole[i]][hole[j]]
				if e.state[d][p] == Unknown {
					unknowns++
					unknownPair = p
					if unknowns >= 2 {
						break
					}
				}
			}
		}
		switch unknowns {
		case 0:
			e.fail(confHole)
		case 1:
			e.stats.ForcedHole++
			e.setState(d, unknownPair, Overlap, confHole)
			e.propagate()
		default:
			// Two or more open chords: no implication from this hole.
			if !ref {
				*memo = holeMemo{own: e.verOv[d], other: e.verDis[d]}
			}
			return
		}
	}
}

// findHoleIn returns the vertices of an induced cycle of length ≥ 4 in
// the graph given by the adjacency rows, or nil if it is chordal (or no
// certificate could be extracted). The production path runs on the
// engine's hole scratch (this runs once per dimension per search node
// whose versions moved), and the returned hole aliases it: it is valid
// until the next call. findHoleInRef is the allocating reference twin.
//
// Maximum cardinality search visits, at each step, the smallest
// unvisited vertex with the most visited neighbours; the reverse visit
// order is a perfect elimination order iff the graph is chordal. Here
// the vertices wait in buckets by visited-neighbour count, and each
// vertex records the neighbours visited before it (its later neighbours
// in elimination order) and the latest of them, p. The check then runs
// over the vertices in index order, as the reference does: a vertex
// whose earlier-visited neighbours other than p are not all adjacent to
// p fails it.
func (e *engine) findHoleIn(adj []graph.Set) []int {
	if e.opt.ReferenceRules {
		return e.findHoleInRef(adj)
	}
	n := e.n
	bucket, unseen, weight := e.holeBucket, e.holeUnseen, e.holeWeight
	earlier, latest := e.holeEarlier, e.holeLatest
	for v := 0; v < n; v++ {
		bucket[v].Clear()
		earlier[v].Clear()
		weight[v] = 0
		latest[v] = -1
	}
	for v := 0; v < n; v++ {
		bucket[0].Add(v)
		unseen.Add(v)
	}
	top := 0
	nbrs := e.holeBad // best's unvisited neighbours; scratch until the check below
	for i := 0; i < n; i++ {
		for bucket[top].Empty() {
			top--
		}
		best := bucket[top].Min()
		bucket[top].Remove(best)
		unseen.Remove(best)
		nbrs.IntersectOf(adj[best], unseen)
		for u := nbrs.Min(); u >= 0; u = nbrs.Min() {
			nbrs.Remove(u)
			bucket[weight[u]].Remove(u)
			weight[u]++
			bucket[weight[u]].Add(u)
			if weight[u] > top {
				top = weight[u]
			}
			earlier[u].Add(best)
			latest[u] = best
		}
	}

	bad := e.holeBad
	for v := 0; v < n; v++ {
		p := latest[v]
		if p < 0 {
			continue
		}
		bad.CopyFrom(earlier[v])
		bad.Remove(p)
		bad.SubtractWith(adj[p])
		// v has later non-adjacent neighbors p and w: close a hole
		// through v.
		for w := bad.Min(); w >= 0; w = bad.Min() {
			if hole := e.closeHole(adj, v, p, w); hole != nil {
				return hole
			}
			bad.Remove(w)
		}
	}
	return nil
}

// closeHole is shortestAvoiding on the engine's scratch buffers: a BFS
// for a shortest p–w path outside N[v] (p and w excepted), returned
// with v in front — the hole v, p, …, w — in the hole buffer, or nil.
func (e *engine) closeHole(adj []graph.Set, v, p, w int) []int {
	banned := e.holeBanned
	banned.CopyFrom(adj[v])
	banned.Add(v)
	banned.Remove(p)
	banned.Remove(w)

	prev := e.holePrev
	for i := 0; i < e.n; i++ {
		prev[i] = -1
	}
	prev[p] = p
	queue := append(e.holeQueue[:0], p)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		if x == w {
			// The path p..w, written back to front behind v.
			k := 2
			for c := w; c != p; c = prev[c] {
				k++
			}
			hole := e.holeCycle[:k]
			hole[0] = v
			for c, i := w, k-1; i >= 1; c, i = prev[c], i-1 {
				hole[i] = c
			}
			return hole
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
