// Package bounds implements the "fast and good classes of lower bounds"
// of stage 1 of the paper's framework (Section 3.1): volume and
// dual-feasible-function (conservative scale) bounds in the style of
// Fekete–Schepers, energetic reasoning over precedence-induced time
// windows, the dependency critical path, and a serialization bound from
// cliques of spatially incompatible modules.
package bounds

import (
	"math"
	"math/bits"
	"slices"
)

// A dual feasible function (DFF) maps item sizes w ∈ [0, W] to scaled
// sizes f(w) ∈ [0, F] such that Σ f(w_i) ≤ F whenever Σ w_i ≤ W.
// If a set of d-dimensional boxes packs into a container, then for any
// choice of one DFF per dimension the scaled volumes still satisfy
//
//	Σ_b Π_d f_d(w_d(b)) ≤ Π_d F_d
//
// (conservative scales, Fekete–Schepers). Violation proves infeasibility.
//
// dff represents one integer DFF together with its scaled capacity.
type dff struct {
	name  string
	scale func(w int) int
	cap   int
}

// identityDFF keeps sizes unchanged. Using it in every dimension yields
// the plain volume bound.
func identityDFF(W int) dff {
	return dff{name: "id", scale: func(w int) int { return w }, cap: W}
}

// thresholdDFF is the classic "push the big items to full size, drop the
// small ones" function with parameter t ≤ W/2:
//
//	f(w) = W  if w > W−t,   f(w) = w  if t ≤ w ≤ W−t,   f(w) = 0  if w < t.
//
// Validity: if Σ w_i ≤ W, at most one item has w > W−t (two would exceed
// W since 2(W−t) ≥ W). If one does, every other item is < t (else the
// total exceeds W), so they scale to 0 and the sum is exactly W.
// Otherwise f(w) ≤ w everywhere.
func thresholdDFF(W, t int) dff {
	return dff{
		name: "thr",
		scale: func(w int) int {
			switch {
			case w > W-t:
				return W
			case w >= t:
				return w
			default:
				return 0
			}
		},
		cap: W,
	}
}

// countingDFF counts items of size ≥ t against the capacity ⌊W/t⌋:
//
//	f(w) = 1 if w ≥ t else 0,   F = ⌊W/t⌋.
//
// Validity: at most ⌊W/t⌋ disjoint intervals of length ≥ t fit in W.
func countingDFF(W, t int) dff {
	return dff{
		name: "cnt",
		scale: func(w int) int {
			if w >= t {
				return 1
			}
			return 0
		},
		cap: W / t,
	}
}

// roundingDFF is the classical Fekete–Schepers rounding function
// u^(k) for integer parameter k ≥ 1, here in integer arithmetic for
// items of size w in a container of size W (normalized x = w/W):
//
//	u(x) = x               if (k+1)·x is integral,
//	u(x) = ⌊(k+1)·x⌋ / k   otherwise,
//
// scaled by k·W so that all values are integers: the scaled capacity is
// k·W. Validity: for Σ x_i ≤ 1, writing (k+1)x_i = a_i + r_i with
// integer a_i and remainder r_i ∈ [0,1), non-integral items contribute
// a_i/k while Σ a_i ≤ (k+1)Σx_i < … — the standard argument; the
// property test in dff_test.go exercises it on thousands of multisets.
func roundingDFF(W, k int) dff {
	return dff{
		name: "rnd",
		scale: func(w int) int {
			num := (k + 1) * w
			if num%W == 0 {
				return k * w
			}
			return (num / W) * W
		},
		cap: k * W,
	}
}

// dffCandidates returns a useful family of DFFs for a dimension with
// capacity W holding items of the given sizes: the identity, threshold
// functions for the distinct item sizes up to W/2 (the validity proof
// of thresholdDFF needs t ≤ W/2), counting functions for every distinct
// item size (valid for any t ≤ W), and the rounding functions u^(1),
// u^(2), u^(3).
func dffCandidates(W int, sizes []int) []dff {
	out := []dff{identityDFF(W)}
	seen := map[int]bool{}
	for _, s := range sizes {
		if s < 1 || s > W || seen[s] {
			continue
		}
		seen[s] = true
		if s <= W/2 {
			out = append(out, thresholdDFF(W, s))
		}
		out = append(out, countingDFF(W, s))
	}
	for k := 1; k <= 3; k++ {
		out = append(out, roundingDFF(W, k))
	}
	return out
}

// dffInfeasible reports whether some combination of one DFF per
// dimension proves that the boxes (sizes[d][b]) cannot pack into the
// container (caps[d]). maxCombos bounds the number of combinations
// tried; 0 means no limit.
//
// Combinations are tried in odometer order, dimension 0 turning
// fastest. Each candidate's scaled sizes are tabulated once, and the
// product over dimensions ≥ 1 is formed once per outer pick, so each
// dimension-0 candidate costs one multiply-add per box that the outer
// pick does not scale to zero.
//
// The arithmetic saturates at the top of uint64 instead of wrapping. A
// saturated total exceeds only capacities that did not saturate, which
// its true value exceeds too, and a saturated capacity is exceeded by
// nothing: saturation can miss a proof but never invent one.
//
// When no sum can reach the top of uint64 and maxCombos admits every
// combination, their order does not matter: then candidates that
// another one of their dimension dominates are dropped
// (dffTable.prune), and the dimension with the most candidates turns
// fastest. Neither changes the verdict.
func dffInfeasible(caps []int, sizes [][]int, maxCombos int) bool {
	nd, n := len(caps), len(sizes[0])
	dims := make([]dffTable, nd)
	combos, bound := 1, uint64(n) // bound ≥ every sum of products
	for d := range caps {
		dims[d] = newDFFTable(caps[d], sizes[d])
		combos = SatMul(combos, len(dims[d].caps))
		bound = satMul(bound, max(dims[d].top, 1))
	}
	if bound < math.MaxUint64 && (maxCombos == 0 || combos <= maxCombos) {
		for d := range dims {
			// Pruning costs up to k² row comparisons for k candidates;
			// spend that only where evaluating every combination costs
			// at least as much.
			if k := len(dims[d].caps); SatMul(k, k) <= combos {
				dims[d].prune(n)
			}
		}
		slices.SortStableFunc(dims, func(a, b dffTable) int { return len(b.caps) - len(a.caps) })
		maxCombos = 0
	}
	pick := make([]int, nd) // outer picks; pick[0] is unused
	rest := make([]uint64, n)
	live := make([]int, 0, n)
	tried := 0
	for {
		// Π over d ≥ 1 of the current outer pick, per box and for the
		// capacity.
		restCap := uint64(1)
		for b := range rest {
			rest[b] = 1
		}
		for d := 1; d < nd; d++ {
			restCap = satMul(restCap, dims[d].caps[pick[d]])
			for b, v := range dims[d].row(pick[d], n) {
				rest[b] = satMul(rest[b], v)
			}
		}
		// Boxes the outer pick scales to zero add nothing to any sum.
		live = live[:0]
		for b, r := range rest {
			if r != 0 {
				live = append(live, b)
			}
		}
		for k, c := range dims[0].caps {
			if maxCombos > 0 && tried >= maxCombos {
				return false
			}
			tried++
			row := dims[0].row(k, n)
			var total, over uint64
			for _, b := range live {
				total, over = mulAdd(total, over, row[b], rest[b])
			}
			if over != 0 {
				total = math.MaxUint64
			}
			if total > satMul(c, restCap) {
				return true
			}
		}
		// Advance the odometer over dimensions ≥ 1.
		d := 1
		for d < nd {
			pick[d]++
			if pick[d] < len(dims[d].caps) {
				break
			}
			pick[d] = 0
			d++
		}
		if d == nd {
			return false
		}
	}
}

// dffTable is one dimension's candidate DFFs evaluated on the boxes:
// candidate k scales the capacity to caps[k] and the boxes to
// row(k, n). top is the largest capacity or scaled size.
type dffTable struct {
	rows []uint64
	caps []uint64
	top  uint64
}

func newDFFTable(W int, sizes []int) dffTable {
	cands := dffCandidates(W, sizes)
	n := len(sizes)
	t := dffTable{rows: make([]uint64, len(cands)*n), caps: make([]uint64, len(cands))}
	for k, f := range cands {
		t.caps[k] = uint64(f.cap)
		t.top = max(t.top, t.caps[k])
		for b, w := range sizes {
			v := uint64(f.scale(w))
			t.rows[k*n+b] = v
			t.top = max(t.top, v)
		}
	}
	return t
}

func (t *dffTable) row(k, n int) []uint64 { return t.rows[k*n : (k+1)*n] }

// prune drops every candidate that another one dominates, keeping the
// first of equal ones. Candidate b dominates a when a scales no box to
// a larger share of its capacity than b does: a(x)·F_b ≤ b(x)·F_a for
// every box x, with F_a, F_b > 0. A combination that proves with a then
// proves with b in a's place, since F_a·Σ b(x)·R(x) ≥ F_b·Σ a(x)·R(x) >
// F_b·F_a·C, where R(x) and C are the other dimensions' products. The
// argument needs exact sums: under saturation b's could saturate where
// a's did not.
func (t *dffTable) prune(n int) {
	dominates := func(b, a int) bool {
		if t.caps[a] == 0 || t.caps[b] == 0 {
			return false
		}
		ra, rb := t.row(a, n), t.row(b, n)
		for x := range ra {
			if !mulLE(ra[x], t.caps[b], rb[x], t.caps[a]) {
				return false
			}
		}
		return true
	}
	dropped := make([]bool, len(t.caps))
	for a := range t.caps {
		for b := range t.caps {
			if b != a && dominates(b, a) && (b < a || !dominates(a, b)) {
				dropped[a] = true
				break
			}
		}
	}
	keep := 0
	for a, drop := range dropped {
		if !drop {
			copy(t.rows[keep*n:(keep+1)*n], t.row(a, n))
			t.caps[keep] = t.caps[a]
			keep++
		}
	}
	t.rows, t.caps = t.rows[:keep*n], t.caps[:keep]
}

// mulLE reports whether a·b ≤ c·d, compared in 128 bits.
func mulLE(a, b, c, d uint64) bool {
	h1, l1 := bits.Mul64(a, b)
	h2, l2 := bits.Mul64(c, d)
	return h1 < h2 || h1 == h2 && l1 <= l2
}

// satMul returns a·b, or the largest uint64 if the product overflows.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// mulAdd returns acc + x·y, and over with any bit of the product or the
// carry that did not fit ORed in. A sum of non-negative terms is at
// least each term and each partial sum, so a sum accumulated this way
// saturates as a whole: when over ends non-zero, the true sum exceeds
// the largest uint64.
func mulAdd(acc, over, x, y uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	sum, carry := bits.Add64(acc, lo, 0)
	return sum, over | hi | carry
}
