package bounds

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/geomsearch"
	"fpga3d/internal/graph"
	"fpga3d/internal/model"
)

func mustOrder(t *testing.T, in *model.Instance) *model.Order {
	t.Helper()
	o, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBoundsSoundOnFeasible: none of the stage-1 bounds may refute an
// instance the exhaustive oracle proves feasible.
func TestBoundsSoundOnFeasible(t *testing.T) {
	for seed := int64(0); seed < 2500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(4), 3, 3, 0.3)
		c := model.Container{W: 2 + rng.Intn(3), H: 2 + rng.Intn(3), T: 2 + rng.Intn(4)}
		if !c.Fits(in) {
			continue
		}
		o := mustOrder(t, in)
		res := geomsearch.Solve(in, c, o, geomsearch.Options{NodeLimit: 2_000_000})
		if res.Status != geomsearch.Feasible {
			continue
		}
		if bad, why := OPPInfeasible(in, c, o); bad {
			t.Fatalf("seed %d: bound %q refuted a feasible instance %+v in %v", seed, why, in, c)
		}
	}
}

// TestMinTimeLBSound: the makespan lower bound never exceeds the true
// optimum (established by ascending oracle probes).
func TestMinTimeLBSound(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(3), 3, 3, 0.4)
		W, H := 3, 3
		if in.MaxW() > W || in.MaxH() > H {
			continue
		}
		o := mustOrder(t, in)
		lb := MinTimeLB(in, W, H, o)
		// Find the true optimum with the oracle.
		opt := -1
		for T := o.CriticalPath(); T <= in.TotalDuration(); T++ {
			res := geomsearch.Solve(in, model.Container{W: W, H: H, T: T}, o,
				geomsearch.Options{NodeLimit: 2_000_000})
			if res.Status == geomsearch.Feasible {
				opt = T
				break
			}
			if res.Status != geomsearch.Infeasible {
				opt = -1
				break
			}
		}
		if opt < 0 {
			continue
		}
		if lb > opt {
			t.Fatalf("seed %d: MinTimeLB %d exceeds optimum %d for %+v", seed, lb, opt, in)
		}
	}
}

func TestMinTimeLBOnDE(t *testing.T) {
	de := bench.DE()
	o := mustOrder(t, de)
	// h ≤ 31: multipliers serialize (12 cycles) and each has an ALU
	// successor: at least 13. On 16×16 even the SUB chain serializes
	// against the multipliers: at least 14.
	if lb := MinTimeLB(de, 17, 17, o); lb < 13 {
		t.Errorf("MinTimeLB(17x17) = %d, want ≥ 13", lb)
	}
	if lb := MinTimeLB(de, 16, 16, o); lb < 14 {
		t.Errorf("MinTimeLB(16x16) = %d, want ≥ 14", lb)
	}
	if lb := MinTimeLB(de, 32, 32, o); lb < 6 || lb > 6 {
		t.Errorf("MinTimeLB(32x32) = %d, want 6 (critical path)", lb)
	}
}

func TestSerializationMinTOnDE(t *testing.T) {
	de := bench.DE()
	o := mustOrder(t, de)
	// At 17×17 the six multipliers pairwise conflict: 12 cycles plus the
	// shortest successor tail of 1.
	if got := SerializationMinT(de, 17, 17, o); got != 13 {
		t.Errorf("SerializationMinT(17x17) = %d, want 13", got)
	}
	// At 32×32 multipliers pair up: no conflict clique beyond single
	// tasks; the bound cannot exceed the critical path.
	if got := SerializationMinT(de, 32, 32, o); got > 6 {
		t.Errorf("SerializationMinT(32x32) = %d, want ≤ 6", got)
	}
}

func TestMinBaseLBOnDE(t *testing.T) {
	de := bench.DE()
	o := mustOrder(t, de)
	// At T = 6 two multipliers can never be sequenced (2+2+tails > 6):
	// they must coexist, forcing 32 cells in some direction.
	if got := MinBaseLB(de, 6, o); got != 32 {
		t.Errorf("MinBaseLB(T=6) = %d, want 32", got)
	}
	// At T = 14 everything serializes: only the largest module counts.
	if got := MinBaseLB(de, 14, o); got != 16 {
		t.Errorf("MinBaseLB(T=14) = %d, want 16", got)
	}
}

func TestOPPInfeasibleReasons(t *testing.T) {
	de := bench.DE()
	o := mustOrder(t, de)
	cases := []struct {
		c model.Container
	}{
		{model.Container{W: 15, H: 15, T: 100}}, // multiplier does not fit
		{model.Container{W: 32, H: 32, T: 5}},   // below critical path
		{model.Container{W: 16, H: 16, T: 13}},  // serialization
	}
	for _, tc := range cases {
		bad, why := OPPInfeasible(de, tc.c, o)
		if !bad {
			t.Errorf("%v not refuted", tc.c)
		} else if why == "" {
			t.Errorf("%v refuted without a reason", tc.c)
		}
	}
	if bad, why := OPPInfeasible(de, model.Container{W: 32, H: 32, T: 6}, o); bad {
		t.Errorf("feasible Table-1 case refuted by %q", why)
	}
}

func TestEnergeticWindows(t *testing.T) {
	// Chain of two tasks with durations 3 and 3 on a 1×1 chip: horizon 5
	// is refuted by the window test inside energetic reasoning.
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 1, Dur: 3}, {W: 1, H: 1, Dur: 3}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	o := mustOrder(t, in)
	if !energeticInfeasible(in, 1, 1, 5, o) {
		t.Fatal("T=5 not refuted")
	}
	if energeticInfeasible(in, 1, 1, 6, o) {
		t.Fatal("T=6 wrongly refuted")
	}
}

func TestEnergeticParallelDemand(t *testing.T) {
	// Two incomparable 2×2×2 tasks forced concurrent in a tight horizon
	// on a 2×2 chip: total energy 16 exceeds 2·2·2 = 8 at T=2… they
	// cannot both run. With T=2 both windows are [0,2].
	in := &model.Instance{
		Tasks: []model.Task{{W: 2, H: 2, Dur: 2}, {W: 2, H: 2, Dur: 2}},
	}
	o := mustOrder(t, in)
	if !energeticInfeasible(in, 2, 2, 2, o) {
		t.Fatal("over-demand not refuted")
	}
	if energeticInfeasible(in, 2, 2, 4, o) {
		t.Fatal("sequential arrangement wrongly refuted")
	}
}

// TestEnergeticMonotone: once feasible for some T, the energetic test
// stays feasible for larger T (the property the binary search in
// MinTimeLB relies on).
func TestEnergeticMonotone(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(4), 3, 4, 0.4)
		o := mustOrder(t, in)
		prevInfeasible := true
		for T := 1; T <= in.TotalDuration()+2; T++ {
			inf := energeticInfeasible(in, 3, 3, T, o)
			if inf && !prevInfeasible {
				t.Fatalf("seed %d: energetic test not monotone at T=%d", seed, T)
			}
			prevInfeasible = inf
		}
		if prevInfeasible {
			t.Fatalf("seed %d: serialized horizon still refuted", seed)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	for _, tc := range [][3]int{{7, 2, 4}, {8, 2, 4}, {1, 3, 1}, {0, 5, 0}, {math.MaxInt, 2, math.MaxInt/2 + 1}} {
		if got := ceilDiv(tc[0], tc[1]); got != tc[2] {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", tc[0], tc[1], got, tc[2])
		}
	}
}

// refMaximalCliques is Bron–Kerbosch with pivoting on freshly
// allocated sets at every branch.
func refMaximalCliques(g *graph.Undirected, emit func(graph.Set)) {
	n := g.N()
	p := graph.NewSet(n)
	for v := 0; v < n; v++ {
		p.Add(v)
	}
	var bk func(r, p, x graph.Set)
	bk = func(r, p, x graph.Set) {
		if p.Empty() && x.Empty() {
			emit(r)
			return
		}
		pivot, bestDeg := -1, -1
		consider := func(v int) {
			tmp := g.Neighbors(v).Clone()
			tmp.IntersectWith(p)
			if d := tmp.Count(); d > bestDeg {
				pivot, bestDeg = v, d
			}
		}
		p.ForEach(consider)
		x.ForEach(consider)
		cand := p.Clone()
		if pivot >= 0 {
			cand.SubtractWith(g.Neighbors(pivot))
		}
		cand.ForEach(func(v int) {
			nr := r.Clone()
			nr.Add(v)
			np := p.Clone()
			np.IntersectWith(g.Neighbors(v))
			nx := x.Clone()
			nx.IntersectWith(g.Neighbors(v))
			bk(nr, np, nx)
			p.Remove(v)
			x.Add(v)
		})
	}
	bk(graph.NewSet(n), p, graph.NewSet(n))
}

// TestMaximalCliquesMatchesReference: the scratch-set enumeration
// emits the same cliques in the same order as the allocating one, on
// random graphs of up to 70 vertices (two bitset words).
func TestMaximalCliquesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 1000; c++ {
		n, p := rng.Intn(20), rng.Float64()
		if c%10 == 0 {
			// Sparse, so the clique count stays small.
			n, p = 60+rng.Intn(11), rng.Float64()*0.1
		}
		g := graph.NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.AddEdge(u, v)
				}
			}
		}
		var got, want []string
		maximalCliques(g, func(s graph.Set) { got = append(got, s.String()) })
		refMaximalCliques(g, func(s graph.Set) { want = append(want, s.String()) })
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("case %d (n=%d): cliques %v, reference %v", c, n, got, want)
		}
	}
}

func TestMinTimeReport(t *testing.T) {
	de := bench.DE()
	o := mustOrder(t, de)
	r := MinTimeReport(de, 17, 17, o)
	if r.Best < 13 || r.Serialization != 13 || r.CriticalPath != 6 {
		t.Fatalf("report = %+v", r)
	}
	// Best must agree with MinTimeLB.
	if lb := MinTimeLB(de, 17, 17, o); r.Best != lb {
		t.Fatalf("report best %d != MinTimeLB %d", r.Best, lb)
	}
	s := r.String()
	for _, want := range []string{"critical-path 6", "serialization 13*", "T ≥ 13"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string %q missing %q", s, want)
		}
	}
	// On the big chip the critical path is binding.
	r32 := MinTimeReport(de, 32, 32, o)
	if r32.Best != 6 || !strings.Contains(r32.String(), "critical-path 6*") {
		t.Fatalf("report(32) = %v", r32.String())
	}
}

func TestMinTimeReportConsistency(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(4), 3, 4, 0.4)
		o := mustOrder(t, in)
		rep := MinTimeReport(in, 4, 4, o)
		if lb := MinTimeLB(in, 4, 4, o); rep.Best != lb {
			t.Fatalf("seed %d: report %d vs MinTimeLB %d", seed, rep.Best, lb)
		}
	}
}

// TestBoundsOnHugeContainer: a container with sides near 2^21 has a
// volume of 2^63, past int64. Wrapped products would let the volume,
// energetic or DFF bound refute a single unit task in it.
func TestBoundsOnHugeContainer(t *testing.T) {
	const side = 1 << 21
	in := &model.Instance{Tasks: []model.Task{{W: 1, H: 1, Dur: 1}, {W: side, H: 1, Dur: 2}}}
	o := mustOrder(t, in)
	for _, c := range []model.Container{
		{W: side, H: side, T: side},
		{W: side + 1, H: side - 1, T: side + 3},
	} {
		if bad, why := OPPInfeasible(in, c, o); bad {
			t.Fatalf("%v: bound %q refuted two small tasks", c, why)
		}
	}
	// Tasks whose volumes saturate are still refuted where they do not fit.
	big := &model.Instance{Tasks: []model.Task{{W: side, H: side, Dur: side}, {W: side, H: side, Dur: side}}}
	if bad, _ := OPPInfeasible(big, model.Container{W: side, H: side, T: side}, mustOrder(t, big)); !bad {
		t.Fatal("two container-sized tasks not refuted")
	}
}
