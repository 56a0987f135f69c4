package solver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

func TestSolveOPPRejectsInvalidInstance(t *testing.T) {
	bad := &model.Instance{} // no tasks
	if _, err := SolveOPP(bad, model.Container{W: 1, H: 1, T: 1}, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
	cyc := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 1, Dur: 1}, {W: 1, H: 1, Dur: 1}},
		Prec:  []model.Arc{{From: 0, To: 1}, {From: 1, To: 0}},
	}
	if _, err := SolveOPP(cyc, model.Container{W: 1, H: 1, T: 4}, Options{}); err == nil {
		t.Fatal("cyclic precedence accepted")
	}
}

func TestSolveOPPTrivial(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 2, H: 2, Dur: 3}}}
	r, err := SolveOPP(in, model.Container{W: 2, H: 2, T: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible {
		t.Fatalf("single fitting task infeasible: %v", r.Decision)
	}
	r, err = SolveOPP(in, model.Container{W: 2, H: 2, T: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("oversized task accepted: %v", r.Decision)
	}
}

// TestMonotonicity: growing any container axis preserves feasibility.
func TestMonotonicity(t *testing.T) {
	opt := Options{TimeLimit: 20 * time.Second}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(3), 3, 3, 0.3)
		c := model.Container{W: 3, H: 3, T: 3}
		if !c.Fits(in) {
			continue
		}
		r, err := SolveOPP(in, c, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != Feasible {
			continue
		}
		for _, bigger := range []model.Container{
			{W: 4, H: 3, T: 3}, {W: 3, H: 4, T: 3}, {W: 3, H: 3, T: 4},
		} {
			rb, err := SolveOPP(in, bigger, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Decision != Feasible {
				t.Fatalf("seed %d: feasible at %v but %v at %v", seed, c, rb.Decision, bigger)
			}
		}
	}
}

// TestMinTimeIsOptimal: the reported minimum is feasible and one cycle
// less is infeasible, on random instances.
func TestMinTimeIsOptimal(t *testing.T) {
	opt := Options{TimeLimit: 30 * time.Second}
	for seed := int64(100); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(3), 3, 3, 0.4)
		W, H := 4, 4
		r, err := MinTime(in, W, H, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != Feasible {
			t.Fatalf("seed %d: MinTime undecided", seed)
		}
		order, _ := in.Order()
		if err := r.Placement.Verify(in, model.Container{W: W, H: H, T: r.Value}, order); err != nil {
			t.Fatalf("seed %d: witness invalid: %v", seed, err)
		}
		if r.Value > r.LowerBound {
			probe, err := SolveOPP(in, model.Container{W: W, H: H, T: r.Value - 1}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if probe.Decision != Infeasible {
				t.Fatalf("seed %d: T=%d claimed optimal but T-1 is %v", seed, r.Value, probe.Decision)
			}
		}
		if r.Value < r.LowerBound {
			t.Fatalf("seed %d: optimum %d below lower bound %d", seed, r.Value, r.LowerBound)
		}
	}
}

// TestMinBaseIsOptimal: same for the chip side.
func TestMinBaseIsOptimal(t *testing.T) {
	opt := Options{TimeLimit: 30 * time.Second}
	for seed := int64(300); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(3), 3, 3, 0.4)
		order, _ := in.Order()
		T := order.CriticalPath() + rng.Intn(3)
		r, err := MinBase(in, T, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != Feasible {
			t.Fatalf("seed %d: MinBase undecided", seed)
		}
		if err := r.Placement.Verify(in, model.Container{W: r.Value, H: r.Value, T: T}, order); err != nil {
			t.Fatalf("seed %d: witness invalid: %v", seed, err)
		}
		if r.Value > 1 {
			probe, err := SolveOPP(in, model.Container{W: r.Value - 1, H: r.Value - 1, T: T}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if probe.Decision != Infeasible {
				t.Fatalf("seed %d: h=%d claimed optimal but h-1 is %v", seed, r.Value, probe.Decision)
			}
		}
	}
}

func TestMinBaseBelowCriticalPath(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 1, Dur: 2}, {W: 1, H: 1, Dur: 2}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	r, err := MinBase(in, 3, Options{}) // critical path is 4
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("MinBase below critical path: %v", r.Decision)
	}
}

func TestMinTimeSpatialMisfit(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 5, H: 1, Dur: 1}}}
	r, err := MinTime(in, 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("task wider than chip: %v", r.Decision)
	}
}

func TestUnknownOnTinyLimits(t *testing.T) {
	// With a 1-node budget and all rules off, a nontrivial decision must
	// come back Unknown rather than wrong.
	de := bench.DE()
	opt := Options{
		SkipBounds: true, SkipHeuristic: true,
		NodeLimit:         1,
		DisableC4Rule:     true,
		DisableCliqueRule: true, DisableCliqueForce: true,
	}
	r, err := SolveOPP(de, model.Container{W: 32, H: 32, T: 6}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Unknown {
		t.Fatalf("decision with 1 node: %v", r.Decision)
	}
}

func TestFixedScheduleValidation(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 1, Dur: 2}, {W: 1, H: 1, Dur: 1}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	// Schedule violating the precedence must be rejected up front.
	if _, err := FeasibleFixedScheduleCtx(context.Background(), in, model.Container{W: 2, H: 2, T: 4}, []int{0, 1}, Options{}); err == nil {
		t.Fatal("precedence-violating schedule accepted")
	}
	// Valid schedule.
	r, err := FeasibleFixedScheduleCtx(context.Background(), in, model.Container{W: 2, H: 2, T: 4}, []int{0, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible {
		t.Fatalf("valid schedule infeasible: %v", r.Decision)
	}
	if r.Placement.S[0] != 0 || r.Placement.S[1] != 2 {
		t.Fatal("start times not preserved")
	}
}

func TestMinBaseFixedScheduleDE(t *testing.T) {
	de := bench.DE()
	starts := []int{0, 0, 2, 4, 5, 0, 2, 0, 2, 0, 1}
	r, err := MinBaseFixedScheduleCtx(context.Background(), de, starts, Options{TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Four multipliers run concurrently and tile 32×32 completely, while
	// two ALU ops are scheduled alongside: 33 is optimal.
	if r.Decision != Feasible || r.Value != 33 {
		t.Fatalf("MinBaseFixedSchedule = %d (%v), want 33", r.Value, r.Decision)
	}
	// The multipliers' slice area alone needs 32² cells and the ALU ops
	// beside them more, so the ascent starts at ⌈√area⌉ = 33: one probe.
	if r.LowerBound != 33 || r.Probes != 1 {
		t.Fatalf("lower bound %d after %d probes, want 33 after 1", r.LowerBound, r.Probes)
	}
	for i, s := range starts {
		if r.Placement.S[i] != s {
			t.Fatal("start times not preserved")
		}
	}
}

func TestDecisionString(t *testing.T) {
	if Feasible.String() != "feasible" || Infeasible.String() != "infeasible" || Unknown.String() != "unknown" {
		t.Fatal("Decision strings wrong")
	}
}

func TestDecidedByStages(t *testing.T) {
	de := bench.DE()
	// An infeasible-by-bounds case.
	r, err := SolveOPP(de, model.Container{W: 16, H: 16, T: 12}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible || len(r.DecidedBy) < 6 || r.DecidedBy[:5] != "bound" {
		t.Fatalf("expected a bound to decide, got %q (%v)", r.DecidedBy, r.Decision)
	}
	// A feasible-by-heuristic case.
	r, err = SolveOPP(de, model.Container{W: 64, H: 64, T: 40}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.DecidedBy != "heuristic" {
		t.Fatalf("expected the heuristic to decide, got %q (%v)", r.DecidedBy, r.Decision)
	}
	// Force the search to decide.
	r, err = SolveOPP(de, model.Container{W: 64, H: 64, T: 40},
		Options{SkipBounds: true, SkipHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.DecidedBy != "search" {
		t.Fatalf("expected the search to decide, got %q (%v)", r.DecidedBy, r.Decision)
	}
}
