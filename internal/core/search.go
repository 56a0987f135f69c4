package core

import (
	"fmt"

	"fpga3d/internal/graph"
	"fpga3d/internal/intgraph"
)

// Solve decides the d-dimensional orthogonal packing problem with
// precedence seeds by branch-and-bound over packing classes.
func Solve(p *Problem, opt Options) Result {
	if err := p.Validate(); err != nil {
		// Invalid problems are reported as infeasible with zero stats;
		// callers construct problems from validated instances, so this
		// is a programming-error guard, not a user-facing path.
		panic(fmt.Sprintf("core: invalid problem: %v", err))
	}
	// A context that is already dead never gets to spend root
	// propagation effort; racing drivers cancel redundant probes before
	// they launch as often as mid-flight.
	if opt.Ctx != nil {
		select {
		case <-opt.Ctx.Done():
			return Result{Status: StatusCanceled}
		default:
		}
	}
	e := newEngine(p, opt)
	if !e.applyRoot() {
		return Result{Status: StatusInfeasible, Stats: e.stats}
	}

	// Workers > 1 hands the propagated root to the work-stealing pool;
	// answers are equal to the sequential search but statistics become
	// sum-of-shards (see Options.Workers). The reference-rules path is
	// never parallelized: it exists to pin down the bit-identical
	// sequential contract.
	if opt.Workers > 1 && !opt.ReferenceRules {
		return solveParallel(e, opt)
	}

	st := e.dfs(0)
	if st == StatusFeasible {
		return Result{Status: StatusFeasible, Solution: e.solution, Stats: e.stats}
	}
	return Result{Status: st, Stats: e.stats}
}

// applyRoot installs the root constraints on a fresh engine and runs
// the root propagation pass; it reports whether the root survived.
//
// Size rule: boxes that cannot sit side by side in a dimension must
// overlap there. This is the cascade starter the paper relies on
// (e.g. two 16×16 multipliers on a 17×17 chip must share both
// spatial dimensions, hence be sequential in time).
func (e *engine) applyRoot() bool {
	p := e.p
	for d := 0; d < e.nd; d++ {
		w := p.Dims[d].Sizes
		cap := p.Dims[d].Cap
		for pr := 0; pr < e.npairs; pr++ {
			u, v := int(e.pairU[pr]), int(e.pairV[pr])
			if w[u]+w[v] > cap {
				e.stats.ForcedSize++
				e.setState(d, pr, Overlap, confSize)
			}
		}
	}
	for _, f := range p.Fixed {
		e.setState(f.Dim, e.pidx[f.U][f.V], f.State, confSize)
	}
	for _, a := range p.Seeds {
		e.setBefore(a.Dim, a.From, a.To, confOrient)
	}
	return e.settle()
}

// settle brings a node to its propagated fixpoint: the event queue,
// then the clique-force pass unless disabled. The root, every dfs
// branch and every stolen subtree settle through it alike; it reports
// whether the node survived.
func (e *engine) settle() bool {
	e.propagate()
	if e.conflict == noConflict && !e.opt.DisableCliqueForce {
		e.cliqueForcePass()
	}
	return e.conflict == noConflict
}

// dfs explores the packing-class tree below the current state. The
// caller guarantees the state is propagated and conflict-free.
func (e *engine) dfs(depth int) Status {
	if !e.checkLimits() {
		return e.aborted
	}
	e.stats.Nodes++
	if depth > e.stats.MaxDepth {
		e.stats.MaxDepth = depth
	}

	d, p := e.pickBranch()
	if d < 0 {
		e.stats.Leaves++
		if sol := e.extract(); sol != nil {
			e.solution = sol
			return StatusFeasible
		}
		e.stats.LeafRejects++
		return StatusInfeasible
	}

	values := e.valueOrder(d, p)
	// In a parallel search, offer the second branch to an idle worker
	// before descending into the first; the donated clone explores it
	// concurrently. Sequential solves (pool == nil) skip the check, so
	// their exploration order is untouched.
	donated := false
	if e.pool != nil && e.pool.tryDonate(e, depth, d, p, values[1]) {
		donated = true
		e.stats.Steals++
	}
	for i, val := range values {
		if i == 1 && donated {
			break
		}
		m := e.mark()
		// Branch assignments start from Unknown, so the rule tag below
		// is never recorded as a conflict source.
		e.setState(d, p, val, confSize)
		if e.settle() {
			st := e.dfs(depth + 1)
			if st != StatusInfeasible {
				return st // feasible or aborted: unwind immediately
			}
		}
		e.undoTo(m)
	}
	return StatusInfeasible
}

// valueOrder returns the two states of pair p on dimension d in the
// order dfs tries them. A hinted dimension tries first the state its
// hinted intervals have; otherwise ordered dimensions try Overlap first
// under Options.TimeOverlapFirst, and every other branch tries Disjoint
// first.
func (e *engine) valueOrder(d, p int) [2]EdgeState {
	dim := &e.p.Dims[d]
	overlapFirst := e.orient[d] != nil && e.opt.TimeOverlapFirst
	if h := dim.Hint; h != nil {
		u, v := e.pairU[p], e.pairV[p]
		overlapFirst = h[u] < h[v]+dim.Sizes[v] && h[v] < h[u]+dim.Sizes[u]
	}
	if overlapFirst {
		return [2]EdgeState{Overlap, Disjoint}
	}
	return [2]EdgeState{Disjoint, Overlap}
}

// pickBranch selects the next undecided (dimension, pair) variable, or
// (-1, -1) at a leaf. Pair choice is fail-first: pairs of two large
// boxes (by the smaller volume of the pair) come first, so the search
// settles the hard sub-instance of big modules before touching small
// ones; pairs already decided in other dimensions get a bonus because
// they are closer to triggering C3/C4 cascades. Within the chosen pair,
// the dimension where the pair is tightest relative to capacity is
// branched.
func (e *engine) pickBranch() (int, int) {
	if e.opt.ReferenceRules {
		return e.pickBranchRef()
	}
	bestP, bestScore := -1, -1
	for p := 0; p < e.npairs; p++ {
		undecided := int(e.pairUndecided[p])
		if undecided == 0 {
			continue
		}
		// Same value as minVol[p]*4 + (nd-undecided)*minVol[p], with the
		// undecided count read from the trail-maintained array instead of
		// an inner dimension scan.
		score := e.minVol[p] * (4 + e.nd - undecided)
		if score > bestScore {
			bestP, bestScore = p, score
		}
	}
	if bestP < 0 {
		return -1, -1
	}
	return e.pickBranchDim(bestP), bestP
}

// pickBranchDim chooses, among the dimensions where pair p is still
// Unknown, the one where the pair is tightest relative to capacity.
// Shared by the optimized and reference branch pickers so their
// tie-breaking is identical by construction.
func (e *engine) pickBranchDim(p int) int {
	bestD, bestTight := -1, -1
	u, v := int(e.pairU[p]), int(e.pairV[p])
	for d := 0; d < e.nd; d++ {
		if e.state[d][p] != Unknown {
			continue
		}
		w := e.p.Dims[d].Sizes
		tight := (w[u] + w[v]) * 1024 / e.p.Dims[d].Cap
		if tight > bestTight {
			bestD, bestTight = d, tight
		}
	}
	return bestD
}

// extract verifies the fully decided state as a packing class (exact C1
// and C2 checks; C3 is maintained by propagation) and converts it to
// coordinates: for each dimension, a transitive orientation of the
// comparability graph — extending the accumulated orientation on
// ordered dimensions — is realized by longest-path positions.
// It returns nil if the leaf is not a packing class or the orientation
// cannot be extended (Theorem 2 failure).
func (e *engine) extract() *Solution {
	coords := make([][]int, e.nd)
	for d := 0; d < e.nd; d++ {
		g := graph.NewUndirected(e.n)
		for u := 0; u < e.n; u++ {
			e.ovAdj[d][u].ForEach(func(v int) {
				if v > u {
					g.AddEdge(u, v)
				}
			})
		}
		// C1 part 1: chordality.
		if !intgraph.IsChordal(g) {
			e.stats.RejectChordal++
			return nil
		}
		// C2: the heaviest stable set must fit the capacity.
		if _, wt := intgraph.MaxWeightStableSet(g, e.p.Dims[d].Sizes); wt > e.p.Dims[d].Cap {
			e.stats.RejectStable++
			return nil
		}
		// C1 part 2 + precedence: transitively orient the complement,
		// extending the orientation accumulated during the search.
		comp := g.Complement()
		var seeds *graph.Digraph
		if e.orient[d] != nil {
			seeds = graph.NewDigraph(e.n)
			for p := 0; p < e.npairs; p++ {
				if e.state[d][p] != Disjoint || e.orient[d][p] == OrientNone {
					continue
				}
				u, v := int(e.pairU[p]), int(e.pairV[p])
				if e.orient[d][p] == OrientFwd {
					seeds.AddArc(u, v)
				} else {
					seeds.AddArc(v, u)
				}
			}
		}
		or, err := intgraph.ExtendTransitive(comp, seeds)
		if err != nil {
			e.stats.RejectOrient++
			return nil
		}
		pos, ok := or.LongestPathFrom(e.p.Dims[d].Sizes)
		if !ok {
			e.stats.RejectOrient++
			return nil
		}
		for b := 0; b < e.n; b++ {
			if pos[b]+e.p.Dims[d].Sizes[b] > e.p.Dims[d].Cap {
				e.stats.RejectBounds++
				return nil
			}
		}
		coords[d] = pos
	}
	return &Solution{Coords: coords}
}
