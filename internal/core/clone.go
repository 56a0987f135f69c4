package core

import "fpga3d/internal/graph"

// cloneForWorker deep-copies the engine's decision state so another
// worker can explore a subtree independently. The caller must be at a
// propagated, conflict-free node: the propagation queue is empty and no
// conflict is pending, so the clone starts from a clean frontier.
//
// Copied (trail-mutated) state: edge states, orientations, the Γ
// implication classes, the per-dimension overlap/disjoint adjacency
// bitsets, unknown counts, per-pair undecided counts, the adjacency
// versions and the version-keyed clique-force snapshots — the skips do
// not change which rules fire, but copying them keeps the clone's work
// profile identical to what the donor would have done in place. Shared (immutable after
// construction): the problem, options, pair index tables, volumes,
// co-areas and the symmetry marks. Fresh: trail, queue, statistics and
// all scratch buffers — a clone never undoes past its own root, and
// scratch is strictly per-worker.
func (e *engine) cloneForWorker() *engine {
	n, nd, np := e.n, e.nd, e.npairs
	c := &engine{
		p: e.p, opt: e.opt, n: n, nd: nd, npairs: np,
		pidx: e.pidx, pairU: e.pairU, pairV: e.pairV,
		vol: e.vol, minVol: e.minVol, coArea: e.coArea, coCap: e.coCap,
		sym:  e.sym,
		pool: e.pool, start: e.start,
		aborted:  StatusFeasible,
		conflict: noConflict,
	}
	c.state = make([][]EdgeState, nd)
	c.orient = make([][]OrientVal, nd)
	c.gParent = make([][]int32, nd)
	c.gParity = make([][]uint8, nd)
	c.gSize = make([][]int32, nd)
	c.ovAdj = make([][]graph.Set, nd)
	c.disAdj = make([][]graph.Set, nd)
	c.unknown = append([]int(nil), e.unknown...)
	c.pairUndecided = append([]int32(nil), e.pairUndecided...)
	c.verDis = append([]int64(nil), e.verDis...)
	c.verOv = append([]int64(nil), e.verOv...)
	c.cfSnapDis = append([]int64(nil), e.cfSnapDis...)
	c.cfSnapOv = append([]int64(nil), e.cfSnapOv...)
	c.rowVerDis = make([][]int64, nd)
	c.rowVerOv = make([][]int64, nd)
	c.pairVer = make([][]int64, nd)
	for d := 0; d < nd; d++ {
		c.state[d] = append([]EdgeState(nil), e.state[d]...)
		if e.orient[d] != nil {
			c.orient[d] = append([]OrientVal(nil), e.orient[d]...)
		}
		c.gParent[d] = append([]int32(nil), e.gParent[d]...)
		c.gParity[d] = append([]uint8(nil), e.gParity[d]...)
		c.gSize[d] = append([]int32(nil), e.gSize[d]...)
		c.ovAdj[d] = make([]graph.Set, n)
		c.disAdj[d] = make([]graph.Set, n)
		for v := 0; v < n; v++ {
			c.ovAdj[d][v] = e.ovAdj[d][v].Clone()
			c.disAdj[d][v] = e.disAdj[d][v].Clone()
		}
		c.rowVerDis[d] = append([]int64(nil), e.rowVerDis[d]...)
		c.rowVerOv[d] = append([]int64(nil), e.rowVerOv[d]...)
		c.pairVer[d] = append([]int64(nil), e.pairVer[d]...)
	}
	c.initScratch()
	return c
}
