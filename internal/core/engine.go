package core

import (
	"math"
	"math/bits"
	"time"

	"fpga3d/internal/graph"
	"fpga3d/internal/obs"
)

// changeKind discriminates trail entries.
type changeKind uint8

const (
	chState changeKind = iota
	chOrient
	chGamma // pair is the class root a Γ link attached
)

type change struct {
	kind changeKind
	dim  int16
	pair int32
	old  uint8
}

type eventKind uint8

const (
	evState eventKind = iota
	evOrient
)

type event struct {
	kind eventKind
	dim  int16
	pair int32
}

// conflictRule identifies which rule detected the current conflict, for
// statistics only.
type conflictRule uint8

const (
	noConflict conflictRule = iota
	confC3
	confSize
	confClique
	confArea
	confC4
	confOrient
	confGamma
)

// skipCounts tallies skipped clique-force sweeps of a whole dimension
// and skipped single clique bounds.
type skipCounts struct {
	cliqueDims, cliqueBounds int64
}

// engine holds the mutable search state for one Solve call.
type engine struct {
	p      *Problem
	opt    Options
	n      int // boxes
	nd     int // dimensions
	npairs int

	pidx  [][]int // pidx[u][v] = pair index, u != v
	pairU []int32
	pairV []int32

	state  [][]EdgeState // [dim][pair]
	orient [][]OrientVal // [dim][pair]; nil for unordered dims

	// Γ implication classes of each dimension (gamma.go): a union-find
	// over pairs with each pair's parent, its orientation parity relative
	// to the parent, and the size of each root's class.
	gParent [][]int32
	gParity [][]uint8
	gSize   [][]int32

	// Incremental adjacency of decided edges, per dimension.
	ovAdj   [][]graph.Set // Overlap adjacency
	disAdj  [][]graph.Set // Disjoint adjacency
	unknown []int         // count of Unknown states per dimension

	// pairUndecided[p] counts the dimensions in which pair p is still
	// Unknown — the quantity pickBranch otherwise recomputes with an
	// inner dimension loop at every node. Maintained by setState/undoTo.
	pairUndecided []int32

	// Adjacency versions, the key of every incremental skip in the
	// production rule path. verDis[d] (verOv[d]) counts every edge
	// insertion or removal in the disjoint (overlap) adjacency of
	// dimension d; rowVerDis[d][v] (rowVerOv) is the version at which
	// vertex v's row last changed. Versions only grow — undo bumps them
	// too — so an equal version means identical adjacency (and, with
	// both versions equal, identical edge states) in that dimension, and
	// a row at or below version s has not changed since s.
	verDis    []int64
	verOv     []int64
	rowVerDis [][]int64
	rowVerOv  [][]int64
	// pairVer[d][p] is verDis[d]+verOv[d] — which grows with every change
	// in dimension d — right after pair p's state last changed there.
	pairVer [][]int64
	// cfSnapDis[d] and cfSnapOv[d] are the versions of dimension d at the
	// last clique-force sweep over d that forced nothing (-1 before the
	// first): a clean point at which no Unknown pair of d could be
	// forced. A pair can only become forcible once it or a row its clique
	// bound reads moves past the snapshot (see cliqueForceDim).
	cfSnapDis []int64
	cfSnapOv  []int64
	// skips counts the rule work the version-keyed skips saved, for
	// tests and profiling. It is not part of Stats, which the reference
	// path (it never skips) must reproduce exactly.
	skips skipCounts

	trail    []change
	queue    []event
	conflict conflictRule

	stats    Stats
	nodeTick int64
	start    time.Time // search start, for progress snapshots
	aborted  Status    // StatusFeasible (sentinel "not aborted") or a limit status

	// pool, when non-nil, is the work-stealing pool this engine's search
	// participates in (parallel solves only; nil on the sequential path,
	// which keeps dfs bit-identical). poolStopped records that the last
	// abort came from the pool's stop broadcast rather than a genuine
	// limit, so the shard's StatusCanceled is not mistaken for a
	// context cancellation when outcomes are merged.
	pool        *wspool
	poolStopped bool
	// nodesFlushed is the portion of stats.Nodes already added to the
	// pool's global node counter (parallel solves only).
	nodesFlushed int64

	solution *Solution

	// vol[b] is the product of box b's sizes over all dimensions;
	// minVol[p] the smaller volume of pair p's boxes (branch scoring).
	vol    []int
	minVol []int
	// coArea[d][b] is box b's cross-section perpendicular to dimension d
	// (its volume divided by its size in d); coCap[d] the corresponding
	// container cross-section. Used by the Helly area-clique rule.
	coArea [][]int
	coCap  []int
	// sym[p] marks pairs of interchangeable boxes (identical sizes in
	// every dimension, identical seed relations): orienting the
	// higher-index box before the lower one is pruned as symmetric.
	sym []bool

	// Scratch buffers: strictly per engine (a worker clone gets its own
	// from initScratch) and never part of the search state.
	//
	// cfDirtyDis and cfDirtyOv hold the rows dirtied since the clique-force
	// snapshot of the dimension being swept.
	cfDirtyDis graph.Set
	cfDirtyOv  graph.Set
	// c4Cand holds the b vertices c4Scan still has to visit for one a.
	c4Cand graph.Set
	// gammaCand holds the third vertices of the Γ links one decision
	// makes.
	gammaCand graph.Set
	// cliqueStack holds one scratch set per recursion depth of the
	// weighted-clique bound, so the branch-and-bound inside
	// cliqueExceedsFast allocates nothing. Grown on demand.
	cliqueStack []graph.Set
}

func newEngine(p *Problem, opt Options) *engine {
	n := p.N
	nd := len(p.Dims)
	e := &engine{p: p, opt: opt, n: n, nd: nd, aborted: StatusFeasible, start: time.Now()}
	e.pidx = make([][]int, n)
	for u := 0; u < n; u++ {
		e.pidx[u] = make([]int, n)
	}
	idx := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e.pidx[u][v] = idx
			e.pidx[v][u] = idx
			e.pairU = append(e.pairU, int32(u))
			e.pairV = append(e.pairV, int32(v))
			idx++
		}
	}
	e.npairs = idx
	e.state = make([][]EdgeState, nd)
	e.orient = make([][]OrientVal, nd)
	e.gParent = make([][]int32, nd)
	e.gParity = make([][]uint8, nd)
	e.gSize = make([][]int32, nd)
	e.ovAdj = make([][]graph.Set, nd)
	e.disAdj = make([][]graph.Set, nd)
	e.unknown = make([]int, nd)
	for d := 0; d < nd; d++ {
		e.state[d] = make([]EdgeState, idx)
		if p.Dims[d].Ordered {
			e.orient[d] = make([]OrientVal, idx)
		}
		e.gParent[d] = make([]int32, idx)
		e.gParity[d] = make([]uint8, idx)
		e.gSize[d] = make([]int32, idx)
		for pr := 0; pr < idx; pr++ {
			e.gParent[d][pr], e.gSize[d][pr] = int32(pr), 1
		}
		e.ovAdj[d] = make([]graph.Set, n)
		e.disAdj[d] = make([]graph.Set, n)
		for v := 0; v < n; v++ {
			e.ovAdj[d][v] = graph.NewSet(n)
			e.disAdj[d][v] = graph.NewSet(n)
		}
		e.unknown[d] = idx
	}
	e.pairUndecided = make([]int32, idx)
	for pr := range e.pairUndecided {
		e.pairUndecided[pr] = int32(nd)
	}
	e.verDis = make([]int64, nd)
	e.verOv = make([]int64, nd)
	e.rowVerDis = make([][]int64, nd)
	e.rowVerOv = make([][]int64, nd)
	e.pairVer = make([][]int64, nd)
	e.cfSnapDis = make([]int64, nd)
	e.cfSnapOv = make([]int64, nd)
	for d := 0; d < nd; d++ {
		e.rowVerDis[d] = make([]int64, n)
		e.rowVerOv[d] = make([]int64, n)
		e.pairVer[d] = make([]int64, idx)
		e.cfSnapDis[d], e.cfSnapOv[d] = -1, -1
	}
	e.initScratch()

	e.vol = make([]int, n)
	for b := 0; b < n; b++ {
		v := 1
		for d := 0; d < nd; d++ {
			v *= p.Dims[d].Sizes[b]
		}
		e.vol[b] = v
	}
	e.minVol = make([]int, idx)
	for pr := 0; pr < idx; pr++ {
		u, v := int(e.pairU[pr]), int(e.pairV[pr])
		e.minVol[pr] = e.vol[u]
		if e.vol[v] < e.minVol[pr] {
			e.minVol[pr] = e.vol[v]
		}
	}
	e.coArea = make([][]int, nd)
	e.coCap = make([]int, nd)
	for d := 0; d < nd; d++ {
		e.coArea[d] = make([]int, n)
		for b := 0; b < n; b++ {
			e.coArea[d][b] = e.vol[b] / p.Dims[d].Sizes[b]
		}
		cc := 1
		for dd := 0; dd < nd; dd++ {
			if dd != d {
				cc = satMul(cc, p.Dims[dd].Cap)
			}
		}
		e.coCap[d] = cc
	}
	e.computeSymmetry()
	return e
}

// satMul returns a·b for non-negative a and b, or math.MaxInt when the
// product does not fit: chip sides near 2^32 would otherwise wrap a
// co-capacity product negative, which the clique rules read as a
// conflict.
func satMul(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt {
		return math.MaxInt
	}
	return int(lo)
}

// initScratch allocates the engine's scratch buffers.
func (e *engine) initScratch() {
	n := e.n
	e.cfDirtyDis = graph.NewSet(n)
	e.cfDirtyOv = graph.NewSet(n)
	e.c4Cand = graph.NewSet(n)
	e.gammaCand = graph.NewSet(n)
}

// computeSymmetry marks pairs of boxes that are interchangeable: equal
// sizes in every dimension and, on every ordered dimension, identical
// seed in/out sets and no seed between them. Any packing can reorder
// such boxes by start time, so forcing the lower-index box first on the
// time axis loses no solutions.
func (e *engine) computeSymmetry() {
	n, nd := e.n, e.nd
	e.sym = make([]bool, e.npairs)
	// Seed relation sets per ordered dimension.
	type rel struct{ in, out graph.Set }
	rels := make([]map[int]rel, nd)
	for d := 0; d < nd; d++ {
		if !e.p.Dims[d].Ordered {
			continue
		}
		rels[d] = make(map[int]rel, n)
		for v := 0; v < n; v++ {
			rels[d][v] = rel{in: graph.NewSet(n), out: graph.NewSet(n)}
		}
	}
	for _, a := range e.p.Seeds {
		rels[a.Dim][a.From].out.Add(a.To)
		rels[a.Dim][a.To].in.Add(a.From)
	}
	for pr := 0; pr < e.npairs; pr++ {
		u, v := int(e.pairU[pr]), int(e.pairV[pr])
		ok := true
		for d := 0; d < nd && ok; d++ {
			if e.p.Dims[d].Sizes[u] != e.p.Dims[d].Sizes[v] {
				ok = false
				break
			}
			if rels[d] == nil {
				continue
			}
			ru, rv := rels[d][u], rels[d][v]
			if ru.in.Has(v) || ru.out.Has(v) || rv.in.Has(u) || rv.out.Has(u) ||
				!ru.in.Equal(rv.in) || !ru.out.Equal(rv.out) {
				ok = false
			}
		}
		e.sym[pr] = ok
	}
}

// --- basic accessors -------------------------------------------------

func (e *engine) st(d, u, v int) EdgeState { return e.state[d][e.pidx[u][v]] }

// orientedBefore reports whether box u is fixed entirely before box v on
// ordered dimension d.
func (e *engine) orientedBefore(d, u, v int) bool {
	p := e.pidx[u][v]
	if e.orient[d] == nil || e.state[d][p] != Disjoint {
		return false
	}
	o := e.orient[d][p]
	if u < v {
		return o == OrientFwd
	}
	return o == OrientRev
}

// --- mutation with trail ----------------------------------------------

func (e *engine) fail(r conflictRule) {
	if e.conflict == noConflict {
		e.conflict = r
		switch r {
		case confC3:
			e.stats.ConflictC3++
		case confSize:
			e.stats.ConflictSize++
		case confClique:
			e.stats.ConflictClique++
		case confArea:
			e.stats.ConflictArea++
		case confC4:
			e.stats.ConflictC4++
		case confOrient:
			e.stats.ConflictOrient++
		case confGamma:
			e.stats.ConflictGamma++
		}
	}
}

// setState decides pair p in dimension d. Contradicting an existing
// decision raises a conflict attributed to rule r.
func (e *engine) setState(d int, p int, s EdgeState, r conflictRule) {
	if e.conflict != noConflict {
		return
	}
	cur := e.state[d][p]
	if cur == s {
		return
	}
	if cur != Unknown {
		e.fail(r)
		return
	}
	e.trail = append(e.trail, change{kind: chState, dim: int16(d), pair: int32(p), old: uint8(cur)})
	e.state[d][p] = s
	u, v := int(e.pairU[p]), int(e.pairV[p])
	if s == Overlap {
		e.ovAdj[d][u].Add(v)
		e.ovAdj[d][v].Add(u)
		e.touchOv(d, u, v)
	} else {
		e.disAdj[d][u].Add(v)
		e.disAdj[d][v].Add(u)
		e.touchDis(d, u, v)
	}
	e.pairVer[d][p] = e.verDis[d] + e.verOv[d]
	e.unknown[d]--
	e.pairUndecided[p]--
	e.queue = append(e.queue, event{kind: evState, dim: int16(d), pair: int32(p)})
}

// setBefore fixes box u entirely before box v on ordered dimension d.
// The pair is first fixed Disjoint if still unknown.
func (e *engine) setBefore(d, u, v int, r conflictRule) {
	if e.conflict != noConflict {
		return
	}
	p := e.pidx[u][v]
	if e.state[d][p] == Overlap {
		e.fail(r)
		return
	}
	if e.state[d][p] == Unknown {
		e.setState(d, p, Disjoint, r)
		if e.conflict != noConflict {
			return
		}
	}
	want := OrientFwd
	if u > v {
		want = OrientRev
	}
	if want == OrientRev && e.sym[p] {
		// Symmetry break: interchangeable boxes run in index order when
		// sequential; the mirrored branch has an equivalent solution.
		e.fail(r)
		return
	}
	cur := e.orient[d][p]
	if cur == want {
		return
	}
	if cur != OrientNone {
		e.fail(r)
		return
	}
	e.trail = append(e.trail, change{kind: chOrient, dim: int16(d), pair: int32(p), old: uint8(cur)})
	e.orient[d][p] = want
	e.queue = append(e.queue, event{kind: evOrient, dim: int16(d), pair: int32(p)})
}

// touchDis records a change (insertion or removal) of the disjoint
// edge {u,v} in dimension d: the dimension version advances and both
// endpoint rows move to it.
func (e *engine) touchDis(d, u, v int) {
	e.verDis[d]++
	ver := e.verDis[d]
	e.rowVerDis[d][u] = ver
	e.rowVerDis[d][v] = ver
}

// touchOv is touchDis for the overlap adjacency.
func (e *engine) touchOv(d, u, v int) {
	e.verOv[d]++
	ver := e.verOv[d]
	e.rowVerOv[d][u] = ver
	e.rowVerOv[d][v] = ver
}

// cliqueScratch returns the per-depth scratch set for the weighted
// clique bound, growing the stack on first use of a depth.
func (e *engine) cliqueScratch(depth int) graph.Set {
	for len(e.cliqueStack) <= depth {
		e.cliqueStack = append(e.cliqueStack, graph.NewSet(e.n))
	}
	return e.cliqueStack[depth]
}

// mark returns the current trail position for later undo.
func (e *engine) mark() int { return len(e.trail) }

// undoTo rolls the trail back to a previous mark and clears conflicts
// and pending events.
func (e *engine) undoTo(m int) {
	for i := len(e.trail) - 1; i >= m; i-- {
		c := e.trail[i]
		d, p := int(c.dim), int(c.pair)
		switch c.kind {
		case chState:
			s := e.state[d][p]
			u, v := int(e.pairU[p]), int(e.pairV[p])
			if s == Overlap {
				e.ovAdj[d][u].Remove(v)
				e.ovAdj[d][v].Remove(u)
				e.touchOv(d, u, v)
			} else if s == Disjoint {
				e.disAdj[d][u].Remove(v)
				e.disAdj[d][v].Remove(u)
				e.touchDis(d, u, v)
			}
			e.pairVer[d][p] = e.verDis[d] + e.verOv[d]
			e.state[d][p] = EdgeState(c.old)
			e.unknown[d]++
			e.pairUndecided[p]++
		case chOrient:
			e.orient[d][p] = OrientVal(c.old)
		case chGamma:
			e.gammaUndo(d, p)
		}
	}
	e.trail = e.trail[:m]
	e.queue = e.queue[:0]
	e.conflict = noConflict
}

// checkLimits updates the abort status from node/time/context budgets
// and, on the same every-256-nodes cadence as the deadline and
// cancellation polls, delivers a progress snapshot to the Progress
// hook.
func (e *engine) checkLimits() bool {
	if e.aborted != StatusFeasible {
		return false
	}
	// In a parallel search the node budget is global across shards and
	// enforced by the pool on the polling cadence below; the per-engine
	// check here applies only to the sequential path.
	if e.pool == nil && e.opt.NodeLimit > 0 && e.stats.Nodes >= e.opt.NodeLimit {
		e.aborted = StatusNodeLimit
		return false
	}
	e.nodeTick++
	if e.nodeTick%256 != 0 {
		return true
	}
	if e.pool != nil && !e.pool.poll(e) {
		return false
	}
	if e.opt.Ctx != nil {
		select {
		case <-e.opt.Ctx.Done():
			e.aborted = StatusCanceled
			return false
		default:
		}
	}
	if !e.opt.Deadline.IsZero() && time.Now().After(e.opt.Deadline) {
		e.aborted = StatusTimeLimit
		return false
	}
	if e.opt.Progress != nil {
		e.emitProgress()
	}
	return true
}

// emitProgress builds a Snapshot from the current counters and hands
// it to the Progress hook.
func (e *engine) emitProgress() {
	elapsed := time.Since(e.start)
	nps := 0.0
	if s := elapsed.Seconds(); s > 0 {
		nps = float64(e.stats.Nodes) / s
	}
	phase := e.opt.ProgressPhase
	if phase == "" {
		phase = obs.PhaseSearch
	}
	e.opt.Progress(obs.Snapshot{
		Phase:       phase,
		Nodes:       e.stats.Nodes,
		NodesPerSec: nps,
		MaxDepth:    e.stats.MaxDepth,
		Elapsed:     elapsed,
		Conflicts:   e.stats.ConflictsByRule(),
	})
}
