package bounds

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

// TestDFFProperty checks the defining inequality of every generated
// dual feasible function: whenever a multiset of sizes fits the
// capacity, the scaled sizes fit the scaled capacity.
func TestDFFProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		W := 2 + rng.Intn(30)
		// Random multiset with Σw ≤ W.
		var items []int
		remaining := W
		for remaining > 0 && rng.Intn(4) != 0 {
			w := 1 + rng.Intn(remaining)
			items = append(items, w)
			remaining -= w
		}
		sizes := append([]int(nil), items...)
		for _, d := range dffCandidates(W, sizes) {
			sum := 0
			for _, w := range items {
				v := d.scale(w)
				if v < 0 {
					return false
				}
				sum += v
			}
			if sum > d.cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdDFFShape(t *testing.T) {
	d := thresholdDFF(10, 3)
	cases := map[int]int{0: 0, 1: 0, 2: 0, 3: 3, 5: 5, 7: 7, 8: 10, 10: 10}
	for w, want := range cases {
		if got := d.scale(w); got != want {
			t.Errorf("threshold(10,3)(%d) = %d, want %d", w, got, want)
		}
	}
	if d.cap != 10 {
		t.Errorf("cap = %d", d.cap)
	}
}

func TestCountingDFFShape(t *testing.T) {
	d := countingDFF(10, 3)
	if d.cap != 3 {
		t.Errorf("cap = %d, want 3", d.cap)
	}
	if d.scale(2) != 0 || d.scale(3) != 1 || d.scale(9) != 1 {
		t.Error("counting scale wrong")
	}
}

func TestDFFCandidatesRespectValidityRanges(t *testing.T) {
	// Threshold functions must only appear for t ≤ W/2; counting for any
	// size ≤ W. With a size above W/2 we must get a counting function
	// but no threshold function for it.
	cands := dffCandidates(10, []int{7})
	sawCounting := false
	for _, d := range cands {
		switch d.name {
		case "thr":
			// Only valid thresholds ≤ 5 may exist; with sizes {7} none.
			t.Errorf("threshold DFF generated for size 7 > W/2")
		case "cnt":
			sawCounting = true
			if d.cap != 10/7 {
				t.Errorf("counting cap = %d", d.cap)
			}
		}
	}
	if !sawCounting {
		t.Error("no counting DFF for size 7")
	}
}

func TestDFFInfeasibleDetectsCountingConflict(t *testing.T) {
	// Six 16×16×2 boxes in 47×47×3: at most 2×2×1 = 4 "big slots".
	caps := []int{47, 47, 3}
	sizes := [][]int{
		{16, 16, 16, 16, 16, 16},
		{16, 16, 16, 16, 16, 16},
		{2, 2, 2, 2, 2, 2},
	}
	if !dffInfeasible(caps, sizes, 0) {
		t.Fatal("counting DFF conflict not detected")
	}
	// The same boxes in 48×48×3 fit (3×2 grid): no refutation allowed.
	caps[0], caps[1] = 48, 48
	if dffInfeasible(caps, sizes, 0) {
		t.Fatal("feasible configuration refuted")
	}
}

func TestDFFVolumeBoundSubsumed(t *testing.T) {
	// Identity in every dimension is the plain volume bound.
	caps := []int{4, 4, 4}
	sizes := [][]int{{3, 3}, {3, 3}, {3, 3}} // 2 × 27 = 54 < 64: volume ok
	if dffInfeasible(caps, sizes, 0) == false {
		// But counting with t=3 gives 2 > 1·1·1: must be refuted.
		t.Fatal("two 3-cubes in a 4-cube not refuted")
	}
}

func TestDFFMaxCombos(t *testing.T) {
	caps := []int{47, 47, 3}
	sizes := [][]int{
		{16, 16, 16, 16, 16, 16},
		{16, 16, 16, 16, 16, 16},
		{2, 2, 2, 2, 2, 2},
	}
	// With a budget of a single combination (the identity triple = plain
	// volume bound) the conflict must go unnoticed.
	if dffInfeasible(caps, sizes, 1) {
		t.Fatal("refuted within one combination")
	}
}

// TestRoundingDFFExhaustive proves the DFF property of u^(k) for every
// multiset of item sizes with Σw ≤ W, for all W ≤ 14 and k ≤ 4 — an
// exhaustive check over all integer partitions, not a random sample.
func TestRoundingDFFExhaustive(t *testing.T) {
	for W := 1; W <= 14; W++ {
		for k := 1; k <= 4; k++ {
			d := roundingDFF(W, k)
			// Enumerate partitions of every total ≤ W with parts ≤ W,
			// non-increasing to avoid duplicates.
			var rec func(remaining, maxPart, scaledSum int) bool
			rec = func(remaining, maxPart, scaledSum int) bool {
				if scaledSum > d.cap {
					return false
				}
				for part := 1; part <= maxPart && part <= remaining; part++ {
					if !rec(remaining-part, part, scaledSum+d.scale(part)) {
						return false
					}
				}
				return true
			}
			if !rec(W, W, 0) {
				t.Fatalf("u^(%d) violates the DFF property for W=%d", k, W)
			}
		}
	}
}

func TestRoundingDFFShape(t *testing.T) {
	// W=6, k=1: u(x) = x when 2x integral (w=3, 6), else floor(2x).
	d := roundingDFF(6, 1)
	if d.cap != 6 {
		t.Fatalf("cap = %d", d.cap)
	}
	// w=3: 2·3=6 divisible by 6 → k·w = 3 (scaled: 3 of 6 = 1/2). ✓
	if d.scale(3) != 3 {
		t.Fatalf("scale(3) = %d", d.scale(3))
	}
	// w=4: 2·4=8, 8/6 = 1 → 1·6 = 6 (i.e. the full container: two
	// items of size 4 never coexist).
	if d.scale(4) != 6 {
		t.Fatalf("scale(4) = %d", d.scale(4))
	}
	// w=2: 2·2=4, 4/6 = 0 → 0: items of a third or less vanish at k=1.
	if d.scale(2) != 0 {
		t.Fatalf("scale(2) = %d", d.scale(2))
	}
}

// refDFFInfeasible is the reference odometer: every combination
// evaluated from scratch, the scale functions called per box, in int64.
func refDFFInfeasible(caps []int, sizes [][]int, maxCombos int) bool {
	nd := len(caps)
	cands := make([][]dff, nd)
	for d := 0; d < nd; d++ {
		cands[d] = dffCandidates(caps[d], sizes[d])
	}
	pick := make([]int, nd)
	combos := 0
	for {
		if maxCombos > 0 && combos >= maxCombos {
			return false
		}
		combos++
		var capProd int64 = 1
		for d := 0; d < nd; d++ {
			capProd *= int64(cands[d][pick[d]].cap)
		}
		var total int64
		for b := range sizes[0] {
			var v int64 = 1
			for d := 0; d < nd; d++ {
				v *= int64(cands[d][pick[d]].scale(sizes[d][b]))
			}
			total += v
		}
		if total > capProd {
			return true
		}
		d := 0
		for d < nd {
			pick[d]++
			if pick[d] < len(cands[d]) {
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

// TestDFFInfeasibleMatchesReference compares the tabulated evaluation
// with the reference odometer on random box multisets, in one to three
// dimensions, under several combination budgets: equal verdicts at
// every budget pin the order in which combinations are tried.
func TestDFFInfeasibleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	budgets := []int{0, 1, 2, 3, 5, 17, 100, 4096}
	refuted := 0
	for c := 0; c < cases; c++ {
		nd := 1 + rng.Intn(3)
		n := 1 + rng.Intn(10)
		caps := make([]int, nd)
		sizes := make([][]int, nd)
		for d := range caps {
			caps[d] = 1 + rng.Intn(24)
			sizes[d] = make([]int, n)
			for b := range sizes[d] {
				// Sizes up to the capacity, biased towards large
				// items so that refutations are common.
				sizes[d][b] = 1 + rng.Intn(caps[d])
				if rng.Intn(2) == 0 {
					sizes[d][b] = caps[d] - rng.Intn(1+caps[d]/2)
				}
			}
		}
		for _, m := range budgets {
			got, want := dffInfeasible(caps, sizes, m), refDFFInfeasible(caps, sizes, m)
			if got != want {
				t.Fatalf("case %d caps %v sizes %v maxCombos %d: %v, reference %v", c, caps, sizes, m, got, want)
			}
			if m == 0 && got {
				refuted++
			}
		}
	}
	if refuted == 0 || refuted == cases {
		t.Fatalf("%d of %d cases refuted: the corpus does not exercise both verdicts", refuted, cases)
	}
}

// TestDFFSaturatesInsteadOfWrapping: on a container with sides near
// 2^21 the capacity product 2^63 wraps int64 to a negative number, and
// a wrapping evaluation would refute one unit box. Saturating
// arithmetic must not.
func TestDFFSaturatesInsteadOfWrapping(t *testing.T) {
	const side = 1 << 21
	caps := []int{side, side, side}
	if dffInfeasible(caps, [][]int{{1}, {1}, {1}}, 0) {
		t.Fatal("one unit box refuted in a 2^21-cube")
	}
	// A box of the whole container still fits, and two such boxes
	// still do not, however far the products overflow.
	if dffInfeasible(caps, [][]int{{side}, {side}, {side}}, 0) {
		t.Fatal("a container-sized box refuted")
	}
	if !dffInfeasible(caps, [][]int{{side, side}, {side, side}, {side, side}}, 0) {
		t.Fatal("two container-sized boxes not refuted")
	}
}

// BenchmarkDFFInfeasible times the DFF bound in containers it cannot
// refute: the paper's DE instance, and 6–8 small random tasks on the
// 6×6×16 chip that fpgaperf's serve workloads ask about, where the
// bound is most of a solve.
func BenchmarkDFFInfeasible(b *testing.B) {
	in := bench.DE()
	for _, c := range []model.Container{{W: 17, H: 17, T: 13}, {W: 32, H: 32, T: 6}} {
		sizes := dffSizes(in)
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dffInfeasible([]int{c.W, c.H, c.T}, sizes, 4096)
			}
		})
	}
	rng := rand.New(rand.NewSource(1))
	var small [][][]int
	for len(small) < 64 {
		small = append(small, dffSizes(bench.Random(rng, 6+rng.Intn(3), 3, 5, 0.3)))
	}
	b.Run("small-6x6x16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dffInfeasible([]int{6, 6, 16}, small[i%len(small)], 4096)
		}
	})
}

// dffSizes returns in's widths, heights and durations.
func dffSizes(in *model.Instance) [][]int {
	sizes := [][]int{make([]int, in.N()), make([]int, in.N()), make([]int, in.N())}
	for i, t := range in.Tasks {
		sizes[0][i], sizes[1][i], sizes[2][i] = t.W, t.H, t.Dur
	}
	return sizes
}
