package core

// The D1 rule on every dimension: Γ implication classes.
//
// C1 asks that every dimension's disjoint graph be transitively
// orientable. D1 is Golumbic's forcing relation Γ: two disjoint edges
// ab and ac whose far ends b and c overlap must point the same way
// relative to a (both out of a, or both into it). A graph is
// transitively orientable iff no implication class — a class of the
// transitive closure of Γ — holds both orientations of one edge. On an
// ordered dimension the engine also carries explicit orientations and
// closes them under D1/D2 (rules.go); the classes run there too, since
// they refute states before any orientation is decided.
//
// With the C4 rule this refutes every hole of the overlap graph by
// propagation: a chordless cycle of length 4 whose chords are Disjoint
// is the C4 rule's, and one of length k ≥ 5 has the complement of C_k
// as its disjoint graph, which is not a comparability graph (C5 is
// self-complementary; longer cycles hold an asteroidal triple, which
// no co-comparability graph has).
//
// The engine keeps the classes of the decided state incrementally. Pair
// p = {u<v} has the orientation variable x_p = 1 iff u→v, and a Γ link
// says x_ab xor x_ac = [a>b] xor [a>c]. The links live in a union-find
// over pairs with the parity of each pair to its parent: union by size,
// no path compression, so undo detaches the root a link attached (one
// chGamma trail entry). Uniting two pairs already in one class with the
// opposite parity is the conflict ConflictGamma.
//
// A link needs its triple a; b, c decided as ab and ac Disjoint, bc
// Overlap. Whichever of the three pairs is decided last sees the other
// two in onState, so every link of the decided state gets made, and a
// Γ conflict on a partial state persists in every completion: decided
// edges stay decided. The rule adds links only; it forces no pair.

// gammaOnOverlap links, for pair {b,c} newly decided Overlap on
// dimension d, the disjoint edges ab and ac of every common
// disjoint neighbour a.
func (e *engine) gammaOnOverlap(d, b, c int) {
	cand := e.gammaCand
	cand.IntersectOf(e.disAdj[d][b], e.disAdj[d][c])
	for a := cand.Next(0); a >= 0 && e.conflict == noConflict; a = cand.Next(a + 1) {
		e.gammaLink(d, e.pidx[a][b], e.pidx[a][c], above(a, b)^above(a, c))
	}
}

// gammaOnDisjoint links, for pair {a,b} newly decided Disjoint on
// dimension d, ab with every disjoint edge ac (or bc) whose
// far end overlaps b (or a).
func (e *engine) gammaOnDisjoint(d, a, b int) {
	pab := e.pidx[a][b]
	for _, end := range [2][2]int{{a, b}, {b, a}} {
		x, y := end[0], end[1]
		cand := e.gammaCand
		cand.IntersectOf(e.disAdj[d][x], e.ovAdj[d][y])
		for c := cand.Next(0); c >= 0 && e.conflict == noConflict; c = cand.Next(c + 1) {
			e.gammaLink(d, pab, e.pidx[x][c], above(x, y)^above(x, c))
		}
	}
}

// above is [a > b] as a parity bit.
func above(a, b int) uint8 {
	if a > b {
		return 1
	}
	return 0
}

// gammaFind returns the root of pair p's class on dimension d and p's
// parity relative to it.
func (e *engine) gammaFind(d, p int) (int, uint8) {
	parent, parity := e.gParent[d], e.gParity[d]
	var s uint8
	for int(parent[p]) != p {
		s ^= parity[p]
		p = int(parent[p])
	}
	return p, s
}

// gammaLink records x_p xor x_q = par on dimension d: it unites the two
// classes, or raises ConflictGamma when they are one class already and
// disagree.
func (e *engine) gammaLink(d, p, q int, par uint8) {
	rp, sp := e.gammaFind(d, p)
	rq, sq := e.gammaFind(d, q)
	if rp == rq {
		if sp^sq != par {
			e.fail(confGamma)
		}
		return
	}
	size := e.gSize[d]
	if size[rp] > size[rq] {
		rp, rq = rq, rp
	}
	e.gParent[d][rp] = int32(rq)
	e.gParity[d][rp] = sp ^ sq ^ par
	size[rq] += size[rp]
	e.trail = append(e.trail, change{kind: chGamma, dim: int16(d), pair: int32(rp)})
}

// gammaUndo detaches the root r that a link attached on dimension d.
// Its parity is left stale: a root's parity is never read, and the next
// link that attaches r overwrites it.
func (e *engine) gammaUndo(d, r int) {
	root := e.gParent[d][r]
	e.gSize[d][root] -= e.gSize[d][r]
	e.gParent[d][r] = int32(r)
}
