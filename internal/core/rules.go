package core

import "fpga3d/internal/graph"

// propagate processes the event queue to a fixpoint or a conflict,
// applying the rules C3 (overlap counting), C2 (heavy cliques of
// disjoint edges), C1 (chordless 4-cycles) and the paper's D1/D2
// implications: the Γ implication classes of D1 on every dimension
// (gamma.go) and, on ordered dimensions, the orientation closure.
func (e *engine) propagate() {
	for e.conflict == noConflict && len(e.queue) > 0 {
		ev := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.stats.Propagations++
		switch ev.kind {
		case evState:
			e.onState(int(ev.dim), int(ev.pair))
		case evOrient:
			e.onOrient(int(ev.dim), int(ev.pair))
		}
	}
	if e.conflict != noConflict {
		e.queue = e.queue[:0]
	}
}

func (e *engine) onState(d, p int) {
	s := e.state[d][p]
	u, v := int(e.pairU[p]), int(e.pairV[p])

	if s == Overlap {
		// C3: at least one dimension must be disjoint for every pair.
		cnt, unkDim := 0, -1
		for dd := 0; dd < e.nd; dd++ {
			switch e.state[dd][p] {
			case Overlap:
				cnt++
			case Unknown:
				unkDim = dd
			}
		}
		if cnt == e.nd {
			e.fail(confC3)
			return
		}
		if cnt == e.nd-1 && unkDim >= 0 {
			e.stats.ForcedC3++
			e.setState(unkDim, p, Disjoint, confC3)
			if e.conflict != noConflict {
				return
			}
		}
		if !e.opt.DisableCliqueRule && e.heavyAreaCliqueThrough(d, u, v) {
			e.fail(confArea)
			return
		}
		if !e.opt.DisableOrientRules {
			e.gammaOnOverlap(d, u, v)
			if e.conflict == noConflict && e.orient[d] != nil {
				e.orientRulesOnOverlap(d, u, v)
			}
			if e.conflict != noConflict {
				return
			}
		}
	} else { // Disjoint
		if !e.opt.DisableCliqueRule && e.heavyCliqueThrough(d, u, v) {
			e.fail(confClique)
			return
		}
		if !e.opt.DisableOrientRules {
			e.gammaOnDisjoint(d, u, v)
			if e.conflict == noConflict && e.orient[d] != nil {
				e.orientRulesOnDisjoint(d, u, v)
			}
			if e.conflict != noConflict {
				return
			}
		}
	}
	if !e.opt.DisableC4Rule {
		e.c4Scan(d, u, v)
	}
}

// orientRulesOnOverlap handles D1/D2 consequences of pair {u,v} becoming
// a component (overlap) edge on ordered dimension d.
func (e *engine) orientRulesOnOverlap(d, u, v int) {
	for a := 0; a < e.n && e.conflict == noConflict; a++ {
		if a == u || a == v {
			continue
		}
		pau, pav := e.pidx[a][u], e.pidx[a][v]
		// D1: comparability edges {a,u}, {a,v} with component edge
		// {u,v} must point the same way relative to a.
		if e.state[d][pau] == Disjoint && e.state[d][pav] == Disjoint {
			auSet := e.orient[d][pau] != OrientNone
			avSet := e.orient[d][pav] != OrientNone
			switch {
			case auSet && !avSet:
				e.stats.ForcedOrient++
				if e.orientedBefore(d, a, u) {
					e.setBefore(d, a, v, confOrient)
				} else {
					e.setBefore(d, v, a, confOrient)
				}
			case avSet && !auSet:
				e.stats.ForcedOrient++
				if e.orientedBefore(d, a, v) {
					e.setBefore(d, a, u, confOrient)
				} else {
					e.setBefore(d, u, a, confOrient)
				}
			case auSet && avSet:
				if e.orientedBefore(d, a, u) != e.orientedBefore(d, a, v) {
					e.fail(confOrient)
				}
			}
		}
		// D2 violation: u→a→v or v→a→u would force {u,v} disjoint.
		if e.orientedBefore(d, u, a) && e.orientedBefore(d, a, v) {
			e.fail(confOrient)
			return
		}
		if e.orientedBefore(d, v, a) && e.orientedBefore(d, a, u) {
			e.fail(confOrient)
			return
		}
	}
}

// orientRulesOnDisjoint handles D1 consequences of pair {u,v} becoming a
// comparability (disjoint) edge on ordered dimension d: an already
// oriented comparability edge at either endpoint whose far end overlaps
// the other endpoint forces the orientation of {u,v}.
func (e *engine) orientRulesOnDisjoint(d, u, v int) {
	for a := 0; a < e.n && e.conflict == noConflict; a++ {
		if a == u || a == v {
			continue
		}
		pau, pav := e.pidx[a][u], e.pidx[a][v]
		// Shared vertex u: {u,a} oriented, {a,v} overlap.
		if e.state[d][pau] == Disjoint && e.orient[d][pau] != OrientNone && e.state[d][pav] == Overlap {
			e.stats.ForcedOrient++
			if e.orientedBefore(d, u, a) {
				e.setBefore(d, u, v, confOrient)
			} else {
				e.setBefore(d, v, u, confOrient)
			}
		}
		// Shared vertex v: {v,a} oriented, {a,u} overlap.
		if e.conflict == noConflict &&
			e.state[d][pav] == Disjoint && e.orient[d][pav] != OrientNone && e.state[d][pau] == Overlap {
			e.stats.ForcedOrient++
			if e.orientedBefore(d, v, a) {
				e.setBefore(d, v, u, confOrient)
			} else {
				e.setBefore(d, u, v, confOrient)
			}
		}
	}
}

// onOrient handles D1/D2 consequences of a newly oriented comparability
// edge on ordered dimension d.
func (e *engine) onOrient(d, p int) {
	if e.opt.DisableOrientRules {
		return
	}
	u, v := int(e.pairU[p]), int(e.pairV[p])
	from, to := u, v
	if e.orient[d][p] == OrientRev {
		from, to = v, u
	}
	for w := 0; w < e.n && e.conflict == noConflict; w++ {
		if w == from || w == to {
			continue
		}
		pfw, ptw := e.pidx[from][w], e.pidx[to][w]
		// D1 at from: {from,w} disjoint, {to,w} overlap ⇒ from→w.
		if e.state[d][pfw] == Disjoint && e.state[d][ptw] == Overlap {
			e.stats.ForcedOrient++
			e.setBefore(d, from, w, confOrient)
			if e.conflict != noConflict {
				return
			}
		}
		// D1 at to: {to,w} disjoint, {from,w} overlap ⇒ w→to.
		if e.state[d][ptw] == Disjoint && e.state[d][pfw] == Overlap {
			e.stats.ForcedOrient++
			e.setBefore(d, w, to, confOrient)
			if e.conflict != noConflict {
				return
			}
		}
		// D2: from→to plus to→w forces from→w (and fixes {from,w}
		// disjoint — a conflict if it is an overlap edge).
		if e.orientedBefore(d, to, w) {
			e.stats.ForcedOrient++
			e.setBefore(d, from, w, confOrient)
			if e.conflict != noConflict {
				return
			}
		}
		// D2: w→from plus from→to forces w→to.
		if e.orientedBefore(d, w, from) {
			e.stats.ForcedOrient++
			e.setBefore(d, w, to, confOrient)
			if e.conflict != noConflict {
				return
			}
		}
	}
}

// heavyCliqueThrough reports whether dimension d contains a set of
// pairwise-disjoint boxes including u and v whose total size exceeds the
// capacity — a violation of C2 that can never be repaired, since decided
// disjoint edges stay disjoint.
func (e *engine) heavyCliqueThrough(d, u, v int) bool {
	w := e.p.Dims[d].Sizes
	budget := e.p.Dims[d].Cap - w[u] - w[v]
	if budget < 0 {
		return true
	}
	if e.opt.ReferenceRules {
		cand := e.disAdj[d][u].Clone()
		cand.IntersectWith(e.disAdj[d][v])
		return cliqueExceeds(e.disAdj[d], w, cand, budget)
	}
	cand := e.cliqueScratch(0)
	cand.IntersectOf(e.disAdj[d][u], e.disAdj[d][v])
	return e.cliqueExceedsFast(e.disAdj[d], w, cand, budget, 1)
}

// heavyAreaCliqueThrough reports whether dimension d contains a set of
// pairwise-overlapping boxes including u and v whose cross-sections
// cannot coexist. By the Helly property of intervals, a clique of G_d
// shares a common coordinate, so its members exist simultaneously there
// and their projections onto the remaining dimensions must be pairwise
// disjoint — their total cross-area is bounded by the product of the
// other capacities.
func (e *engine) heavyAreaCliqueThrough(d, u, v int) bool {
	budget := e.coCap[d] - e.coArea[d][u] - e.coArea[d][v]
	if budget < 0 {
		return true
	}
	if e.opt.ReferenceRules {
		cand := e.ovAdj[d][u].Clone()
		cand.IntersectWith(e.ovAdj[d][v])
		return cliqueExceeds(e.ovAdj[d], e.coArea[d], cand, budget)
	}
	cand := e.cliqueScratch(0)
	cand.IntersectOf(e.ovAdj[d][u], e.ovAdj[d][v])
	return e.cliqueExceedsFast(e.ovAdj[d], e.coArea[d], cand, budget, 1)
}

// cliqueExceeds reports whether the graph given by the adjacency rows
// restricted to cand contains a clique with total weight strictly
// greater than budget. This is the reference implementation
// (Options.ReferenceRules): it clones the candidate set at every
// branch. cliqueExceedsFast is the allocation-free production twin;
// the two must stay decision-identical (TestDifferentialRulePaths).
func cliqueExceeds(adj []graph.Set, w []int, cand graph.Set, budget int) bool {
	if budget < 0 {
		return true
	}
	sum, pick, pickW := 0, -1, -1
	cand.ForEach(func(x int) {
		sum += w[x]
		if w[x] > pickW {
			pick, pickW = x, w[x]
		}
	})
	if sum <= budget {
		return false
	}
	// Branch on the heaviest candidate: include it, then exclude it.
	with := cand.Clone()
	with.IntersectWith(adj[pick])
	if cliqueExceeds(adj, w, with, budget-pickW) {
		return true
	}
	without := cand.Clone()
	without.Remove(pick)
	return cliqueExceeds(adj, w, without, budget)
}

// cliqueExceedsFast is cliqueExceeds on the engine's per-depth scratch
// sets: the same branch order (heaviest candidate first, ties to the
// smallest vertex) and the same pruning, but zero allocations. cand
// must live in cliqueScratch(depth-1) or caller-owned storage; the
// callee only writes scratch slots >= depth.
func (e *engine) cliqueExceedsFast(adj []graph.Set, w []int, cand graph.Set, budget, depth int) bool {
	if budget < 0 {
		return true
	}
	sum, pick, pickW := cand.SumAndMax(w)
	if sum <= budget {
		return false
	}
	s := e.cliqueScratch(depth)
	s.IntersectOf(cand, adj[pick])
	if e.cliqueExceedsFast(adj, w, s, budget-pickW, depth+1) {
		return true
	}
	s.CopyFrom(cand)
	s.Remove(pick)
	return e.cliqueExceedsFast(adj, w, s, budget, depth+1)
}

// cliqueForcePass fixes every still-unknown pair whose Disjoint decision
// would complete an overweight clique of disjoint edges (so it must be
// Overlap), and every pair whose Overlap decision would complete an
// overweight area clique of overlap edges (so it must be Disjoint).
// Runs to a fixpoint together with propagation.
func (e *engine) cliqueForcePass() {
	for e.conflict == noConflict {
		changed := false
		for d := 0; d < e.nd && e.conflict == noConflict; d++ {
			if e.unknown[d] != 0 && e.cliqueForceDim(d) {
				changed = true
			}
		}
		e.propagate()
		if !changed {
			return
		}
	}
}

// cliqueForceDim runs one clique-force sweep over the Unknown pairs of
// dimension d, in pair order, and reports whether it forced any.
//
// The production path skips every check whose answer is already known
// to be "no forcing", keyed to the adjacency versions. The sweep reads
// dimension d only, and its snapshot (cfSnapDis/cfSnapOv) is taken only
// at a clean point: a sweep that forced nothing, so every Unknown pair
// answered "no" at those versions. Then:
//
//   - both versions still at the snapshot means identical state, so the
//     whole dimension is skipped;
//   - otherwise a bound is rechecked only if the pair itself changed
//     since the snapshot (it may have been decided there, and never
//     checked), or row u, row v or a common neighbour's row moved in the
//     adjacency the bound reads. The clique bound of pair {u,v} reads
//     exactly rows u and v, which pin the candidate set, and the
//     candidates' rows; so with none of them moved its answer is still
//     the snapshot's "no".
//
// A pair the sweep forces dirties its own rows for the pairs after it.
// The reference path (Options.ReferenceRules) checks every pair.
func (e *engine) cliqueForceDim(d int) bool {
	ref := e.opt.ReferenceRules
	snapDis, snapOv := e.cfSnapDis[d], e.cfSnapOv[d]
	if !ref && snapDis == e.verDis[d] && snapOv == e.verOv[d] {
		e.skips.cliqueDims++
		return false
	}
	dirtyDis, dirtyOv := e.cfDirtyDis, e.cfDirtyOv
	dirtyDis.Clear()
	dirtyOv.Clear()
	for x := 0; x < e.n; x++ {
		if e.rowVerDis[d][x] > snapDis {
			dirtyDis.Add(x)
		}
		if e.rowVerOv[d][x] > snapOv {
			dirtyOv.Add(x)
		}
	}
	disAdj, ovAdj := e.disAdj[d], e.ovAdj[d]
	w := e.p.Dims[d].Sizes
	cap := e.p.Dims[d].Cap
	forced := false
	for p := 0; p < e.npairs && e.conflict == noConflict; p++ {
		if e.state[d][p] != Unknown {
			continue
		}
		u, v := int(e.pairU[p]), int(e.pairV[p])
		fresh := ref || e.pairVer[d][p] > snapDis+snapOv
		if !fresh && !dirtyDis.Has(u) && !dirtyDis.Has(v) && !dirtyDis.IntersectsBoth(disAdj[u], disAdj[v]) {
			e.skips.cliqueBounds++
		} else if e.disCliqueForces(d, u, v, w, cap) {
			e.stats.ForcedClique++
			e.setState(d, p, Overlap, confClique)
			dirtyOv.Add(u)
			dirtyOv.Add(v)
			forced = true
			continue
		}
		if !fresh && !dirtyOv.Has(u) && !dirtyOv.Has(v) && !dirtyOv.IntersectsBoth(ovAdj[u], ovAdj[v]) {
			e.skips.cliqueBounds++
		} else if e.areaCliqueForces(d, u, v) {
			e.stats.ForcedArea++
			e.setState(d, p, Disjoint, confArea)
			dirtyDis.Add(u)
			dirtyDis.Add(v)
			forced = true
		}
	}
	if !forced && !ref {
		e.cfSnapDis[d], e.cfSnapOv[d] = e.verDis[d], e.verOv[d]
	}
	return forced
}

// disCliqueForces reports whether deciding pair {u,v} Disjoint in
// dimension d would complete an overweight clique of disjoint edges.
func (e *engine) disCliqueForces(d, u, v int, w []int, cap int) bool {
	budget := cap - w[u] - w[v]
	if budget < 0 {
		return true
	}
	if e.opt.ReferenceRules {
		cand := e.disAdj[d][u].Clone()
		cand.IntersectWith(e.disAdj[d][v])
		return cliqueExceeds(e.disAdj[d], w, cand, budget)
	}
	cand := e.cliqueScratch(0)
	cand.IntersectOf(e.disAdj[d][u], e.disAdj[d][v])
	return e.cliqueExceedsFast(e.disAdj[d], w, cand, budget, 1)
}

// areaCliqueForces is disCliqueForces for the Helly area rule: would
// deciding pair {u,v} Overlap in dimension d complete an overlap clique
// whose cross-sections exceed the perpendicular capacity?
func (e *engine) areaCliqueForces(d, u, v int) bool {
	budget := e.coCap[d] - e.coArea[d][u] - e.coArea[d][v]
	if budget < 0 {
		return true
	}
	if e.opt.ReferenceRules {
		cand := e.ovAdj[d][u].Clone()
		cand.IntersectWith(e.ovAdj[d][v])
		return cliqueExceeds(e.ovAdj[d], e.coArea[d], cand, budget)
	}
	cand := e.cliqueScratch(0)
	cand.IntersectOf(e.ovAdj[d][u], e.ovAdj[d][v])
	return e.cliqueExceedsFast(e.ovAdj[d], e.coArea[d], cand, budget, 1)
}

// c4Scan enforces C1's forbidden configuration: an induced chordless
// 4-cycle in a component graph (4 overlap edges around the cycle, both
// diagonals disjoint) cannot appear in an interval graph. A fully
// decided pattern is a conflict; a pattern with exactly one undecided
// pair forces that pair to the breaking value. Only quadruples containing
// the changed pair {u,v} are scanned.
//
// The production path prunes each configuration on the three slots
// that do not involve b: a configuration with a decided-wrong slot, or
// with two open slots, among {uv, ua, va} can neither fire nor
// conflict for any b, so it is skipped for that a. The b loop then
// visits only the b that c4Candidates admits for a viable
// configuration; every other b would return early from c4Check.
// Forcings during the scan refresh the viability, keeping the visit
// sequence identical to the reference's fresh-read-per-check. The
// candidates need no refresh: a forcing either decides a slot of the
// current b, which changes rows a, u and v only in column b, or the
// one open b-independent slot — and since any two configurations
// disagree on two of those slots, at most one is viable, and deciding
// its open slot against it leaves none.
func (e *engine) c4Scan(d, u, v int) {
	if e.opt.ReferenceRules {
		e.c4ScanRef(d, u, v)
		return
	}
	row := e.state[d]
	pu, pv := e.pidx[u], e.pidx[v]
	puv := pu[v]
	cand := e.c4Cand
	for a := 0; a < e.n && e.conflict == noConflict; a++ {
		if a == u || a == v {
			continue
		}
		pa := e.pidx[a]
		pua, pva := pu[a], pv[a]
		k1, k2, k3 := c4Viability(row[puv], row[pua], row[pva])
		if k1 < 0 && k2 < 0 && k3 < 0 {
			continue
		}
		e.c4Candidates(d, u, v, a, k1, k2, k3)
		depth := len(e.trail)
		for b := cand.Next(a + 1); b >= 0 && e.conflict == noConflict; b = cand.Next(b + 1) {
			if b == u || b == v {
				continue
			}
			// Three configurations, named by their diagonal matching.
			if k1 >= 0 {
				e.c4Check(d, puv, pa[b], pua, pva, pv[b], pu[b])
			}
			if len(e.trail) != depth {
				depth = len(e.trail)
				k1, k2, k3 = c4Viability(row[puv], row[pua], row[pva])
			}
			if k2 >= 0 {
				e.c4Check(d, pua, pv[b], puv, pva, pa[b], pu[b])
			}
			if len(e.trail) != depth {
				depth = len(e.trail)
				k1, k2, k3 = c4Viability(row[puv], row[pua], row[pva])
			}
			if k3 >= 0 {
				e.c4Check(d, pu[b], pva, puv, pv[b], pa[b], pua)
			}
			if len(e.trail) != depth {
				depth = len(e.trail)
				k1, k2, k3 = c4Viability(row[puv], row[pua], row[pva])
			}
			if k1 < 0 && k2 < 0 && k3 < 0 {
				break
			}
		}
	}
}

// c4Viability classifies the three C4 configurations of c4Scan by
// their b-independent slots: configuration k gets the number of its
// (uv, ua, va) slots still Unknown, or -1 when it is not viable — a
// slot decided against the pattern, or more than one open, since the
// full pattern allows at most one open slot and c4Check would return
// early for every b.
func c4Viability(suv, sua, sva EdgeState) (k1, k2, k3 int) {
	// sDis is the slot that must end up Disjoint, sOv1/sOv2 the slots
	// that must end up Overlap.
	open := func(sDis, sOv1, sOv2 EdgeState) int {
		if sDis == Overlap || sOv1 == Disjoint || sOv2 == Disjoint {
			return -1
		}
		unknowns := 0
		if sDis == Unknown {
			unknowns++
		}
		if sOv1 == Unknown {
			unknowns++
		}
		if sOv2 == Unknown {
			unknowns++
		}
		if unknowns > 1 {
			return -1
		}
		return unknowns
	}
	// Config 1: diagonal uv (Disjoint), cycle edges ua, va (Overlap).
	// Config 2: diagonal ua (Disjoint), cycle edges uv, va (Overlap).
	// Config 3: diagonal va (Disjoint), cycle edges uv, ua (Overlap).
	return open(suv, sua, sva), open(sua, suv, sva), open(sva, suv, sua)
}

// c4Candidates fills c4Cand with every b at which a viable
// configuration can still fire, from the b slots the configurations
// need: config 1 ab Disjoint, vb and ub Overlap; config 2 vb Disjoint,
// ab and ub Overlap; config 3 ub Disjoint, vb and ab Overlap. With an
// open b-independent slot (k = 1) all three b slots must already match;
// with none (k = 0) they must merely not be decided against the
// pattern. It may admit u and v, which the caller skips.
func (e *engine) c4Candidates(d, u, v, a, k1, k2, k3 int) {
	dis, ov := e.disAdj[d], e.ovAdj[d]
	cand := e.c4Cand
	cand.Clear()
	switch k1 {
	case 0:
		cand.AddNoneOf(ov[a], dis[v], dis[u])
	case 1:
		cand.AddCommon(dis[a], ov[v], ov[u])
	}
	switch k2 {
	case 0:
		cand.AddNoneOf(ov[v], dis[a], dis[u])
	case 1:
		cand.AddCommon(dis[v], ov[a], ov[u])
	}
	switch k3 {
	case 0:
		cand.AddNoneOf(ov[u], dis[v], dis[a])
	case 1:
		cand.AddCommon(dis[u], ov[v], ov[a])
	}
}

// c4Check tests one C4 configuration: diagonals d1, d2 must be Disjoint
// and the cycle pairs c1..c4 must be Overlap for the forbidden pattern.
func (e *engine) c4Check(d int, d1, d2, c1, c2, c3, c4 int) {
	pairs := [6]int{d1, d2, c1, c2, c3, c4}
	var want [6]EdgeState
	want[0], want[1] = Disjoint, Disjoint
	want[2], want[3], want[4], want[5] = Overlap, Overlap, Overlap, Overlap

	unknownSlot := -1
	for i := 0; i < 6; i++ {
		s := e.state[d][pairs[i]]
		if s == Unknown {
			if unknownSlot >= 0 {
				return // two or more open slots: no implication yet
			}
			unknownSlot = i
			continue
		}
		if s != want[i] {
			return // pattern already broken
		}
	}
	if unknownSlot < 0 {
		e.fail(confC4)
		return
	}
	// Exactly one open slot: force the value that breaks the pattern.
	e.stats.ForcedC4++
	breaking := Overlap
	if want[unknownSlot] == Overlap {
		breaking = Disjoint
	}
	e.setState(d, pairs[unknownSlot], breaking, confC4)
}
