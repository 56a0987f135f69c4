package solver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/geomsearch"
	"fpga3d/internal/model"
	"fpga3d/internal/strategy"
)

// oracleCase solves one random instance with both the packing-class
// solver and the exhaustive geometric baseline and demands agreement.
func oracleCase(t *testing.T, seed int64, withPrec bool, opt Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4) // 2..5 tasks: keeps the oracle exhaustive yet fast
	pArc := 0.0
	if withPrec {
		pArc = 0.35
	}
	in := bench.Random(rng, n, 3, 3, pArc)
	c := model.Container{W: 2 + rng.Intn(3), H: 2 + rng.Intn(3), T: 2 + rng.Intn(4)}

	// Clamp task sizes so each fits individually; the interesting
	// disagreements are about combinations, not trivial misfits.
	for i := range in.Tasks {
		if in.Tasks[i].W > c.W {
			in.Tasks[i].W = c.W
		}
		if in.Tasks[i].H > c.H {
			in.Tasks[i].H = c.H
		}
		if in.Tasks[i].Dur > c.T {
			in.Tasks[i].Dur = c.T
		}
	}
	order, err := in.Order()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	want := geomsearch.Solve(in, c, order, geomsearch.Options{NodeLimit: 3_000_000})
	if want.Status != geomsearch.Feasible && want.Status != geomsearch.Infeasible {
		return // oracle hit its cap; skip this case
	}
	got, err := solveOPP(context.Background(), &strategy.Problem{In: in, C: c, Order: order}, opt)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if got.Decision == Unknown {
		t.Fatalf("seed %d: packing-class solver hit limits on a tiny case", seed)
	}
	wantFeasible := want.Status == geomsearch.Feasible
	if (got.Decision == Feasible) != wantFeasible {
		t.Fatalf("seed %d: disagreement on %v (prec=%v): core=%v oracle=%v\ninstance: %+v",
			seed, c, withPrec, got.Decision, want.Status, in)
	}
	if got.Decision == Feasible {
		if err := got.Placement.Verify(in, c, order); err != nil {
			t.Fatalf("seed %d: returned placement invalid: %v", seed, err)
		}
	}
}

func TestOracleNoPrecedence(t *testing.T) {
	opt := Options{TimeLimit: 20 * time.Second}
	for seed := int64(0); seed < 4000; seed++ {
		oracleCase(t, seed, false, opt)
	}
}

func TestOracleWithPrecedence(t *testing.T) {
	opt := Options{TimeLimit: 20 * time.Second}
	for seed := int64(10000); seed < 14000; seed++ {
		oracleCase(t, seed, true, opt)
	}
}

// TestOracleSearchOnly repeats the comparison with bounds and heuristic
// disabled, so the branch-and-bound engine itself answers every case.
func TestOracleSearchOnly(t *testing.T) {
	opt := Options{SkipBounds: true, SkipHeuristic: true, TimeLimit: 20 * time.Second}
	for seed := int64(20000); seed < 22500; seed++ {
		oracleCase(t, seed, true, opt)
		oracleCase(t, seed+5000, false, opt)
	}
}

// TestOracleAblations repeats the comparison with each propagation rule
// disabled in turn — every configuration must stay exact.
func TestOracleAblations(t *testing.T) {
	base := Options{SkipBounds: true, SkipHeuristic: true, TimeLimit: 20 * time.Second}
	variants := map[string]func(*Options){
		"no-c4":           func(o *Options) { o.DisableC4Rule = true },
		"no-clique":       func(o *Options) { o.DisableCliqueRule = true },
		"no-clique-force": func(o *Options) { o.DisableCliqueForce = true },
		"no-orient":       func(o *Options) { o.DisableOrientRules = true },
		"disjoint-first":  func(o *Options) { o.TimeDisjointFirst = true },
		"everything-off": func(o *Options) {
			o.DisableC4Rule = true
			o.DisableCliqueRule = true
			o.DisableCliqueForce = true
			o.DisableOrientRules = true
		},
	}
	for name, mut := range variants {
		t.Run(name, func(t *testing.T) {
			opt := base
			mut(&opt)
			for seed := int64(30000); seed < 30800; seed++ {
				oracleCase(t, seed, true, opt)
			}
		})
	}
}

// TestFixedScheduleAgainstFreeSolve: a schedule produced by the solver
// itself must be accepted by the fixed-schedule variant on the same
// chip.
func TestFixedScheduleAgainstFreeSolve(t *testing.T) {
	opt := Options{TimeLimit: 20 * time.Second}
	found := 0
	for seed := int64(4000); seed < 4200 && found < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(3), 3, 3, 0.3)
		c := model.Container{W: 3, H: 3, T: 4}
		for i := range in.Tasks {
			if in.Tasks[i].W > c.W {
				in.Tasks[i].W = c.W
			}
			if in.Tasks[i].H > c.H {
				in.Tasks[i].H = c.H
			}
			if in.Tasks[i].Dur > c.T {
				in.Tasks[i].Dur = c.T
			}
		}
		r, err := SolveOPP(in, c, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != Feasible {
			continue
		}
		found++
		fr, err := FeasibleFixedScheduleCtx(context.Background(), in, c, r.Placement.S, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fr.Decision != Feasible {
			t.Fatalf("seed %d: fixed-schedule rejected the solver's own schedule %v", seed, r.Placement.S)
		}
		if err := fr.Placement.Verify(in, c, nil); err != nil {
			t.Fatalf("seed %d: fixed-schedule placement invalid: %v", seed, err)
		}
		// Start times must be exactly the prescribed ones.
		for i := range fr.Placement.S {
			if fr.Placement.S[i] != r.Placement.S[i] {
				t.Fatalf("seed %d: fixed-schedule changed start times", seed)
			}
		}
	}
	if found < 20 {
		t.Fatalf("only %d feasible cases sampled; oracle too weak", found)
	}
}

// TestOracleStructuredDAGs repeats the oracle comparison with layered
// and series-parallel precedence structures, which exercise much denser
// transitive closures than uniform arc sampling.
func TestOracleStructuredDAGs(t *testing.T) {
	opt := Options{TimeLimit: 20 * time.Second}
	for seed := int64(50000); seed < 50400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var in *model.Instance
		if seed%2 == 0 {
			in = bench.RandomLayered(rng, 1+rng.Intn(3), 2, 3, 2, 0.5)
		} else {
			in = bench.RandomSeriesParallel(rng, 2+rng.Intn(4), 3, 2)
		}
		if in.N() > 6 {
			continue // keep the exhaustive oracle fast
		}
		c := model.Container{W: 2 + rng.Intn(3), H: 2 + rng.Intn(3), T: 2 + rng.Intn(5)}
		for i := range in.Tasks {
			if in.Tasks[i].W > c.W {
				in.Tasks[i].W = c.W
			}
			if in.Tasks[i].H > c.H {
				in.Tasks[i].H = c.H
			}
			if in.Tasks[i].Dur > c.T {
				in.Tasks[i].Dur = c.T
			}
		}
		order, err := in.Order()
		if err != nil {
			t.Fatal(err)
		}
		want := geomsearch.Solve(in, c, order, geomsearch.Options{NodeLimit: 3_000_000})
		if want.Status != geomsearch.Feasible && want.Status != geomsearch.Infeasible {
			continue
		}
		got, err := solveOPP(context.Background(), &strategy.Problem{In: in, C: c, Order: order}, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantFeasible := want.Status == geomsearch.Feasible
		if got.Decision == Unknown || (got.Decision == Feasible) != wantFeasible {
			t.Fatalf("seed %d: core=%v oracle=%v\ninstance %+v in %v", seed, got.Decision, want.Status, in, c)
		}
		if got.Decision == Feasible {
			if err := got.Placement.Verify(in, c, order); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}
