package solver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

func TestMultiChipSimple(t *testing.T) {
	// Two concurrent full-chip modules need two chips.
	in := &model.Instance{
		Tasks: []model.Task{{W: 2, H: 2, Dur: 2}, {W: 2, H: 2, Dur: 2}},
	}
	opt := Options{TimeLimit: 30 * time.Second}
	r, err := SolveMultiChipCtx(context.Background(), in, 2, 2, 2, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("one chip: %v, want infeasible", r.Decision)
	}
	r, err = SolveMultiChipCtx(context.Background(), in, 2, 2, 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible {
		t.Fatalf("two chips: %v", r.Decision)
	}
	if r.Chip[0] == r.Chip[1] {
		t.Fatalf("both tasks on chip %d", r.Chip[0])
	}
}

func TestMinChipsDE(t *testing.T) {
	// The DE benchmark at the critical-path latency on 16×16 chips:
	// a multiplier fills a whole chip, six of them must finish within 6
	// cycles (2 cycles each, chains of two), and the ALUs interleave —
	// three chips are necessary and sufficient.
	de := bench.DE()
	opt := Options{TimeLimit: 120 * time.Second}
	r, err := MinChips(de, 16, 16, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.Chips != 3 {
		t.Fatalf("MinChips = %d (%v), want 3", r.Chips, r.Decision)
	}
	// With a relaxed horizon of 14 cycles, one chip suffices (Table 1).
	r14, err := MinChips(de, 16, 16, 14, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r14.Decision != Feasible || r14.Chips != 1 {
		t.Fatalf("MinChips(T=14) = %d (%v), want 1", r14.Chips, r14.Decision)
	}
}

func TestMinChipsMonotoneInT(t *testing.T) {
	de := bench.DE()
	opt := Options{TimeLimit: 120 * time.Second}
	prev := -1
	for _, T := range []int{6, 8, 10, 14} {
		r, err := MinChips(de, 16, 16, T, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != Feasible {
			t.Fatalf("T=%d undecided", T)
		}
		if prev >= 0 && r.Chips > prev {
			t.Fatalf("more chips needed at a looser horizon: T=%d needs %d > %d", T, r.Chips, prev)
		}
		prev = r.Chips
	}
}

func TestMultiChipInfeasibleCases(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{{W: 3, H: 1, Dur: 1}},
	}
	opt := Options{}
	// Module wider than the chip: no k helps.
	r, err := SolveMultiChipCtx(context.Background(), in, 2, 2, 4, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("misfit: %v", r.Decision)
	}
	// Horizon below the critical path: no k helps.
	chain := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 1, Dur: 2}, {W: 1, H: 1, Dur: 2}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	r, err = SolveMultiChipCtx(context.Background(), chain, 2, 2, 3, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("short horizon: %v", r.Decision)
	}
	if _, err := SolveMultiChipCtx(context.Background(), chain, 2, 2, 4, 0, opt); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestMultiChipPrecedenceAcrossChips: a chain may span chips, but the
// time order must hold globally.
func TestMultiChipPrecedenceAcrossChips(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{
			{W: 2, H: 2, Dur: 2}, // full chip
			{W: 2, H: 2, Dur: 2}, // full chip, depends on task 0
			{W: 2, H: 2, Dur: 2}, // independent, full chip
		},
		Prec: []model.Arc{{From: 0, To: 1}},
	}
	// T=4 on two chips: the chain occupies cycles 0-4 (either chip),
	// task 2 runs anywhere on the other chip.
	r, err := SolveMultiChipCtx(context.Background(), in, 2, 2, 4, 2, Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible {
		t.Fatalf("decision %v", r.Decision)
	}
	if r.Placement.S[0]+2 > r.Placement.S[1] {
		t.Fatal("cross-chip precedence violated")
	}
	// On one chip, T=4 cannot host 6 cycles of full-chip work.
	r1, err := SolveMultiChipCtx(context.Background(), in, 2, 2, 4, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Decision != Infeasible {
		t.Fatalf("one chip: %v", r1.Decision)
	}
}

// TestMultiChipAgainstSingleChip: with k = 1 the multi-chip solver must
// agree with the plain solver on random instances.
func TestMultiChipAgainstSingleChip(t *testing.T) {
	opt := Options{TimeLimit: 20 * time.Second}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(3), 3, 3, 0.3)
		c := model.Container{W: 3, H: 3, T: 4}
		if !c.Fits(in) {
			continue
		}
		plain, err := SolveOPP(in, c, opt)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := SolveMultiChipCtx(context.Background(), in, c.W, c.H, c.T, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Decision != multi.Decision {
			t.Fatalf("seed %d: plain=%v multi(k=1)=%v", seed, plain.Decision, multi.Decision)
		}
	}
}

func TestMinTimeMultiChip(t *testing.T) {
	de := bench.DE()
	opt := Options{TimeLimit: 120 * time.Second}
	// One 16×16 chip: Table 1 says 14 cycles.
	r1, err := MinTimeMultiChip(de, 16, 16, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Decision != Feasible || r1.MinTime != 14 {
		t.Fatalf("k=1: T=%d (%v), want 14", r1.MinTime, r1.Decision)
	}
	// Three chips reach the critical path.
	r3, err := MinTimeMultiChip(de, 16, 16, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Decision != Feasible || r3.MinTime != 6 {
		t.Fatalf("k=3: T=%d (%v), want 6", r3.MinTime, r3.Decision)
	}
	// Two chips land in between and cannot beat the k=3 value.
	r2, err := MinTimeMultiChip(de, 16, 16, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Decision != Feasible || r2.MinTime < r3.MinTime || r2.MinTime > r1.MinTime {
		t.Fatalf("k=2: T=%d (%v), want between %d and %d", r2.MinTime, r2.Decision, r3.MinTime, r1.MinTime)
	}
	t.Logf("DE on 16x16 chips: k=1→T=%d, k=2→T=%d, k=3→T=%d", r1.MinTime, r2.MinTime, r3.MinTime)
}

// TestMultiChipHugeChips: chip sides near 2^32 must not overflow the
// engine's co-capacity products (which read as a false conflict) or
// MinChips's volume bound (which divided by zero). One chip of any of
// these sides holds DE within 20 cycles.
func TestMultiChipHugeChips(t *testing.T) {
	de := bench.DE()
	for _, side := range []int{1 << 30, 1 << 31, 1 << 32, 1 << 33} {
		r, err := SolveMultiChipCtx(context.Background(), de, side, side, 20, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != Feasible {
			t.Errorf("SolveMultiChip on %d×%d: %v after %d nodes, want feasible", side, side, r.Decision, r.Stats.Nodes)
		}
	}
	r, err := MinChips(de, 1<<32, 1<<32, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.Chips != 1 {
		t.Fatalf("MinChips on 2^32×2^32 = %d chips (%v), want 1", r.Chips, r.Decision)
	}
}
