package heur

import (
	"math/rand"
	"slices"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

// TestPlaceFixedWitnesses: every placement PlaceFixed returns keeps the
// prescribed starts and verifies, on narrow (word) and wide (W > 64,
// boolean) chips; and the greedy placer's own schedules, which fit the
// chip they came from, are placed often.
func TestPlaceFixedWitnesses(t *testing.T) {
	placed := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(10), 5, 5, 0.2)
		o, err := in.Order()
		if err != nil {
			t.Fatal(err)
		}
		side := 5 + rng.Intn(4)
		if seed%5 == 0 {
			side += 64 // the boolean grid's path
		}
		ref, mk, ok := MinMakespan(in, side, side, o)
		if !ok {
			t.Fatalf("seed %d: greedy failed", seed)
		}
		for _, w := range []int{side - 1, side} {
			c := model.Container{W: w, H: side, T: mk}
			p, ok := PlaceFixed(in, c.W, c.H, ref.S)
			if !ok {
				continue
			}
			if w == side {
				placed++
			}
			if !slices.Equal(p.S, ref.S) {
				t.Fatalf("seed %d: starts moved from %v to %v", seed, ref.S, p.S)
			}
			if err := p.Verify(in, c, o); err != nil {
				t.Fatalf("seed %d on %v: %v", seed, c, err)
			}
		}
	}
	if placed < 300 {
		t.Fatalf("only %d of 400 greedy schedules placed on their own chip", placed)
	}
}

// TestPlaceFixedLongSchedule: the grid's time axis holds one cycle per
// interval between distinct start and end times, so a schedule of a
// billion cycles costs no more than one of four.
func TestPlaceFixedLongSchedule(t *testing.T) {
	const long = 1_000_000_000
	in := &model.Instance{Tasks: []model.Task{
		{W: 2, H: 2, Dur: long}, {W: 2, H: 2, Dur: long}, {W: 4, H: 2, Dur: 1}, {W: 4, H: 4, Dur: 5},
	}}
	starts := []int{0, long / 2, long, 3 * long / 2}
	c := model.Container{W: 4, H: 4, T: 2 * long}
	p, ok := PlaceFixed(in, c.W, c.H, starts)
	if !ok {
		t.Fatal("long schedule not placed")
	}
	if err := p.Verify(in, c, nil); err != nil {
		t.Fatal(err)
	}
	// The 4×4 task overlaps the second 2×2 one in time: no room.
	if _, ok := PlaceFixed(in, c.W, c.H, []int{0, long / 2, long, long / 2}); ok {
		t.Fatal("placed a 4×4 task beside a 2×2 one on a 4×4 chip")
	}
}

func TestPlaceFixedTaskExceedsChip(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 3, H: 1, Dur: 1}}}
	if _, ok := PlaceFixed(in, 2, 4, []int{0}); ok {
		t.Fatal("placed a 3-wide task on a 2-wide chip")
	}
}
