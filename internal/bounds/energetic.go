package bounds

import (
	"math"
	"sort"

	"fpga3d/internal/model"
)

// energeticInfeasible applies energetic reasoning: every task v must run
// inside its precedence window [EST(v), LFT(v)] = [EST(v), T − tail(v)].
// For any time window [a, b), the minimum spatial area×time that v is
// forced to spend inside [a, b) — the smaller of its left-shifted and
// right-shifted overlaps — summed over all tasks must not exceed the
// chip capacity W·H·(b−a).
func energeticInfeasible(in *model.Instance, W, H, T int, o *model.Order) bool {
	n := in.N()
	type win struct {
		est, lft, dur int
		area          uint64
	}
	ws := make([]win, n)
	points := map[int]bool{0: true, T: true}
	for v := 0; v < n; v++ {
		t := in.Tasks[v]
		est, lft := o.EST(v), o.LFT(v, T)
		if est+t.Dur > lft {
			return true // the window itself is too tight
		}
		ws[v] = win{est: est, lft: lft, dur: t.Dur, area: satMul(uint64(t.W), uint64(t.H))}
		points[est] = true
		points[est+t.Dur] = true
		points[lft] = true
		points[lft-t.Dur] = true
	}
	pts := make([]int, 0, len(points))
	for p := range points {
		if p >= 0 && p <= T {
			pts = append(pts, p)
		}
	}
	sort.Ints(pts)

	capArea := satMul(uint64(W), uint64(H))
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			a, b := pts[i], pts[j]
			// Saturating, like the DFF bound: a wrapped capacity
			// would refute anything.
			var demand, over uint64
			for _, w := range ws {
				left := intersectLen(w.est, w.est+w.dur, a, b)
				right := intersectLen(w.lft-w.dur, w.lft, a, b)
				m := left
				if right < m {
					m = right
				}
				demand, over = mulAdd(demand, over, uint64(m), w.area)
			}
			if over != 0 {
				demand = math.MaxUint64
			}
			if demand > satMul(capArea, uint64(b-a)) {
				return true
			}
		}
	}
	return false
}

// intersectLen returns the length of [s1, e1) ∩ [s2, e2).
func intersectLen(s1, e1, s2, e2 int) int {
	lo, hi := s1, e1
	if s2 > lo {
		lo = s2
	}
	if e2 < hi {
		hi = e2
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
