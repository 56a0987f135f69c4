package bounds

import (
	"math"
	"math/bits"

	"fpga3d/internal/graph"
	"fpga3d/internal/model"
)

// CeilDiv returns ⌈a / b⌉ for non-negative a and positive b, without
// the overflow of (a+b−1)/b when a is a saturated volume. With b a
// SatMul product it is the least side s with s·b ≥ a.
func CeilDiv(a, b int) int {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// SatMul returns a·b for non-negative a and b, or math.MaxInt when
// the product does not fit. Area and volume products of chip sides use
// it, so sides near 2^32 saturate instead of wrapping.
func SatMul(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt {
		return math.MaxInt
	}
	return int(lo)
}

// satAdd returns a+b for non-negative a and b, or math.MaxInt when the
// sum does not fit.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// ceilSqrt returns ⌈√a⌉ for non-negative a, in integers.
func ceilSqrt(a int) int {
	r := int(math.Sqrt(float64(a)))
	for r > 0 && SatMul(r-1, r-1) >= a {
		r--
	}
	for SatMul(r, r) < a {
		r++
	}
	return r
}

// MinSquareSide returns the least side h with h²·T ≥ vol, for
// non-negative vol and positive T: the side below which a square chip
// cannot hold volume vol within time T.
func MinSquareSide(vol, T int) int { return ceilSqrt(CeilDiv(vol, T)) }

// OPPInfeasible tries the paper's stage-1 bounds to disprove the
// existence of a feasible packing of in inside c under order o. When it
// returns true the instance is provably infeasible and the returned
// string names the certifying bound. A false result is inconclusive.
func OPPInfeasible(in *model.Instance, c model.Container, o *model.Order) (bool, string) {
	if !c.Fits(in) {
		return true, "task exceeds container"
	}
	if o.CriticalPath() > c.T {
		return true, "critical path"
	}
	if in.Volume() > c.Volume() {
		return true, "volume"
	}
	if t := SerializationMinT(in, c.W, c.H, o); t > c.T {
		return true, "serialization clique"
	}
	if energeticInfeasible(in, c.W, c.H, c.T, o) {
		return true, "energetic reasoning"
	}
	sizes := [][]int{make([]int, in.N()), make([]int, in.N()), make([]int, in.N())}
	for b, t := range in.Tasks {
		sizes[0][b], sizes[1][b], sizes[2][b] = t.W, t.H, t.Dur
	}
	if dffInfeasible([]int{c.W, c.H, c.T}, sizes, 4096) {
		return true, "dual feasible functions"
	}
	return false, ""
}

// MinTimeLB returns a lower bound on the minimum makespan (SPP) of in on
// a W×H chip under order o.
func MinTimeLB(in *model.Instance, W, H int, o *model.Order) int {
	lb := o.CriticalPath()
	for _, t := range in.Tasks {
		if t.Dur > lb {
			lb = t.Dur
		}
	}
	if v := CeilDiv(in.Volume(), SatMul(W, H)); v > lb {
		lb = v
	}
	if s := SerializationMinT(in, W, H, o); s > lb {
		lb = s
	}
	// Energetic reasoning: find the largest T that it refutes.
	// Feasibility of the energetic test is monotone in T (windows only
	// loosen), so binary search applies.
	lo, hi := lb, lb+in.TotalDuration()+1
	if energeticInfeasible(in, W, H, lo, o) {
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if energeticInfeasible(in, W, H, mid, o) {
				lo = mid
			} else {
				hi = mid
			}
		}
		lb = lo + 1
	}
	return lb
}

// MinBaseLB returns a lower bound on the minimum square chip side h for
// packing in within time T under order o.
func MinBaseLB(in *model.Instance, T int, o *model.Order) int {
	lb := in.MaxW()
	if h := in.MaxH(); h > lb {
		lb = h
	}
	// Area bound: h² · T must cover the volume.
	vol := in.Volume()
	lb = max(lb, MinSquareSide(vol, T))
	// Forced-concurrency bound: a pair that cannot be sequenced within T
	// in either direction must coexist, so it must fit side by side in x
	// or in y.
	n := in.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if o.Comparable(u, v) {
				continue
			}
			tu, tv := in.Tasks[u], in.Tasks[v]
			uThenV := o.EST(u)+tu.Dur+tv.Dur+o.Tail(v) <= T
			vThenU := o.EST(v)+tv.Dur+tu.Dur+o.Tail(u) <= T
			if uThenV || vThenU {
				continue
			}
			need := tu.W + tv.W
			if alt := tu.H + tv.H; alt < need {
				need = alt
			}
			if need > lb {
				lb = need
			}
		}
	}
	return lb
}

// SerializationMinT computes a makespan lower bound from spatial
// incompatibility: two modules that fit side by side in neither spatial
// dimension can never run concurrently, so any clique C of such pairs is
// totally ordered in time and forces
//
//	T ≥ Σ_{v∈C} dur(v) + min_{v∈C} EST(v) + min_{v∈C} tail(v).
//
// The bound maximizes this expression over the maximal cliques of the
// conflict graph (plus greedy shrinkings, since dropping a member can
// raise the min head/tail).
func SerializationMinT(in *model.Instance, W, H int, o *model.Order) int {
	n := in.N()
	g := graph.NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			tu, tv := in.Tasks[u], in.Tasks[v]
			if tu.W+tv.W > W && tu.H+tv.H > H {
				g.AddEdge(u, v)
			}
		}
	}
	best := 0
	evaluate := func(c graph.Set) int {
		sum, minHead, minTail := 0, int(^uint(0)>>1), int(^uint(0)>>1)
		c.ForEach(func(v int) {
			sum += in.Tasks[v].Dur
			if h := o.EST(v); h < minHead {
				minHead = h
			}
			if t := o.Tail(v); t < minTail {
				minTail = t
			}
		})
		if c.Empty() {
			return 0
		}
		return sum + minHead + minTail
	}
	cur := graph.NewSet(n)
	maximalCliques(g, func(c graph.Set) {
		cur.CopyFrom(c)
		for {
			val := evaluate(cur)
			if val > best {
				best = val
			}
			// Greedy shrink: try removing one member to raise the bound.
			improvedBy, improvedVal := -1, val
			cur.ForEach(func(v int) {
				cur.Remove(v)
				if nv := evaluate(cur); nv > improvedVal {
					improvedBy, improvedVal = v, nv
				}
				cur.Add(v)
			})
			if improvedBy < 0 {
				break
			}
			cur.Remove(improvedBy)
		}
	})
	return best
}

// maximalCliques runs Bron–Kerbosch with pivoting, calling emit for each
// maximal clique; emit must not retain its argument. Intended for the
// tiny conflict graphs of module sets. Every branch adds one vertex to
// the clique, so the recursion is at most n deep, and each depth owns
// its candidate, excluded and branching sets: the enumeration
// allocates only those, once.
func maximalCliques(g *graph.Undirected, emit func(graph.Set)) {
	n := g.N()
	r := graph.NewSet(n)
	scratch := graph.NewSets(3*(n+1), n)
	ps, xs, cands := scratch[:n+1], scratch[n+1:2*(n+1)], scratch[2*(n+1):]
	for v := 0; v < n; v++ {
		ps[0].Add(v)
	}
	var bk func(d int)
	bk = func(d int) {
		p, x := ps[d], xs[d]
		if p.Empty() && x.Empty() {
			emit(r)
			return
		}
		// Pivot: vertex of p ∪ x with most neighbors in p.
		pivot, bestDeg := -1, -1
		for _, s := range [2]graph.Set{p, x} {
			for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
				if deg := g.Neighbors(v).IntersectionCount(p); deg > bestDeg {
					pivot, bestDeg = v, deg
				}
			}
		}
		cand := cands[d]
		cand.CopyFrom(p)
		if pivot >= 0 {
			cand.SubtractWith(g.Neighbors(pivot))
		}
		for v := cand.Next(0); v >= 0; v = cand.Next(v + 1) {
			r.Add(v)
			ps[d+1].IntersectOf(p, g.Neighbors(v))
			xs[d+1].IntersectOf(x, g.Neighbors(v))
			bk(d + 1)
			r.Remove(v)
			p.Remove(v)
			x.Add(v)
		}
	}
	bk(0)
}
