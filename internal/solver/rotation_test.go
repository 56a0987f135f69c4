package solver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

func TestRotationEnablesPlacement(t *testing.T) {
	// Two concurrent 1×4 modules on a 4×2 chip: without rotation a 1×4
	// module does not even fit (h = 4 > 2); rotating both to 4×1 stacks
	// them.
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 4, Dur: 1}, {W: 1, H: 4, Dur: 1}},
	}
	c := model.Container{W: 4, H: 2, T: 1}
	plain, err := SolveOPP(in, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Decision != Infeasible {
		t.Fatalf("unrotated: %v, want infeasible", plain.Decision)
	}
	rot, err := SolveOPPWithRotationCtx(context.Background(), in, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rot.Decision != Feasible {
		t.Fatalf("rotated: %v, want feasible", rot.Decision)
	}
	if !rot.Rotations[0] || !rot.Rotations[1] {
		t.Fatalf("rotations = %v, want both", rot.Rotations)
	}
	if err := rot.Placement.Verify(rot.Oriented, c, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotationPrefersUnrotated(t *testing.T) {
	// A single 2×3 module in a 3×3 chip fits both ways; the solver must
	// report the unrotated witness first.
	in := &model.Instance{Tasks: []model.Task{{W: 2, H: 3, Dur: 1}}}
	r, err := SolveOPPWithRotationCtx(context.Background(), in, model.Container{W: 3, H: 3, T: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.Rotations[0] {
		t.Fatalf("decision %v rotations %v", r.Decision, r.Rotations)
	}
}

func TestRotationInfeasibleEitherWay(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 2, H: 5, Dur: 1}}}
	r, err := SolveOPPWithRotationCtx(context.Background(), in, model.Container{W: 4, H: 4, T: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("decision %v", r.Decision)
	}
}

func TestRotationSquareModulesSkipEnumeration(t *testing.T) {
	// All-square instances have exactly one orientation assignment.
	de := bench.DE() // multipliers are square; ALUs are 16×1 — 5 rotatable
	r, err := SolveOPPWithRotationCtx(context.Background(), de, model.Container{W: 32, H: 32, T: 6}, Options{TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible {
		t.Fatalf("decision %v", r.Decision)
	}
	// The paper's fixed-orientation optimum is already feasible, so no
	// rotations are needed.
	for i, rot := range r.Rotations {
		if rot {
			t.Fatalf("task %d rotated unnecessarily", i)
		}
	}
}

func TestMinBaseWithRotation(t *testing.T) {
	// Three concurrent 1×4 strips: side by side they need a 3×4
	// footprint, rotated they stack as three 4×1 rows — either way the
	// minimal square chip is 4, and the rotation-aware optimizer must
	// agree with the fixed-orientation one.
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 4, Dur: 2}, {W: 1, H: 4, Dur: 2}, {W: 1, H: 4, Dur: 2}},
	}
	r, rots, err := MinBaseWithRotation(in, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Three 1×4 strips side by side: 3×4 footprint → square side 4.
	if r.Decision != Feasible || r.Value != 4 {
		t.Fatalf("h = %d (%v), want 4", r.Value, r.Decision)
	}
	if len(rots) != 3 {
		t.Fatalf("rotations = %v", rots)
	}
	// Compare against the unrotated optimizer: same value here.
	plain, err := MinBase(in, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Value != 4 {
		t.Fatalf("plain h = %d", plain.Value)
	}
}

func TestMinBaseWithRotationImproves(t *testing.T) {
	// A case where rotation strictly helps: three 1×5 strips plus one
	// 5×1 strip, all concurrent (T=1). With fixed orientations the mix
	// of tall and flat strips forces a 6×6 chip; rotating everything
	// into the same orientation packs four parallel strips into 5×5.
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 5, Dur: 1}, {W: 1, H: 5, Dur: 1}, {W: 1, H: 5, Dur: 1}, {W: 5, H: 1, Dur: 1}},
	}
	plain, err := MinBase(in, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rot, _, err := MinBaseWithRotation(in, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rot.Value > plain.Value {
		t.Fatalf("rotation made things worse: %d > %d", rot.Value, plain.Value)
	}
	if plain.Value != 6 || rot.Value != 5 {
		t.Fatalf("plain %d (want 6), rotated %d (want 5)", plain.Value, rot.Value)
	}
}

func TestRotationBelowCriticalPath(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 2, Dur: 2}, {W: 1, H: 2, Dur: 2}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	r, _, err := MinBaseWithRotation(in, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("decision %v", r.Decision)
	}
}

func TestRotationTooManyRotatable(t *testing.T) {
	in := &model.Instance{}
	for i := 0; i < maxRotatable+1; i++ {
		in.Tasks = append(in.Tasks, model.Task{W: 1, H: 2, Dur: 1})
	}
	if _, err := SolveOPPWithRotationCtx(context.Background(), in, model.Container{W: 10, H: 10, T: 100}, Options{}); err == nil {
		t.Fatal("rotation explosion not refused")
	}
}

// TestRotationOracle: rotation results agree with brute-forcing the
// orientation assignments through the plain solver.
func TestRotationOracle(t *testing.T) {
	opt := Options{TimeLimit: 20 * time.Second}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(2), 3, 2, 0.3)
		c := model.Container{W: 3, H: 3, T: 3}
		// Reference: enumerate all orientations through SolveOPP.
		var rotatable []int
		for i, task := range in.Tasks {
			if task.W != task.H {
				rotatable = append(rotatable, i)
			}
		}
		want := false
		for m := 0; m < 1<<len(rotatable) && !want; m++ {
			cand := in.Clone()
			for bit, idx := range rotatable {
				if m&(1<<bit) != 0 {
					cand.Tasks[idx].W, cand.Tasks[idx].H = cand.Tasks[idx].H, cand.Tasks[idx].W
				}
			}
			if !c.Fits(cand) {
				continue
			}
			r, err := SolveOPP(cand, c, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r.Decision == Feasible {
				want = true
			}
		}
		got, err := SolveOPPWithRotationCtx(context.Background(), in, c, opt)
		if err != nil {
			t.Fatal(err)
		}
		if (got.Decision == Feasible) != want {
			t.Fatalf("seed %d: rotation solver %v, brute force %v", seed, got.Decision, want)
		}
	}
}

func TestMinTimeWithRotation(t *testing.T) {
	// Two chained 1×4 modules on a 4×2 chip: only the rotated (4×1)
	// orientation fits, and the chain then needs 2 cycles.
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 4, Dur: 1}, {W: 1, H: 4, Dur: 1}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	r, rots, err := MinTimeWithRotation(in, 4, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.Value != 2 {
		t.Fatalf("T = %d (%v), want 2", r.Value, r.Decision)
	}
	if !rots[0] || !rots[1] {
		t.Fatalf("rotations = %v", rots)
	}
	// A module that fits in no orientation.
	bad := &model.Instance{Tasks: []model.Task{{W: 3, H: 5, Dur: 1}}}
	rb, _, err := MinTimeWithRotation(bad, 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Decision != Infeasible {
		t.Fatalf("misfit: %v", rb.Decision)
	}
	// On the DE benchmark rotation cannot beat the fixed-orientation
	// optimum of 6 (the critical path).
	de := bench.DE()
	rde, _, err := MinTimeWithRotation(de, 32, 32, Options{TimeLimit: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rde.Decision != Feasible || rde.Value != 6 {
		t.Fatalf("DE with rotation: T=%d (%v), want 6", rde.Value, rde.Decision)
	}
}
