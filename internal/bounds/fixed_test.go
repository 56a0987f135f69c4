package bounds

import (
	"math/rand"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

// deStarts is a hand schedule of DE with makespan 6: four multipliers
// run concurrently and tile 32×32 completely, alongside two ALU ops.
var deStarts = []int{0, 0, 2, 4, 5, 0, 2, 0, 2, 0, 1}

func TestFixedScheduleInfeasibleDE(t *testing.T) {
	de := bench.DE()
	if bad, why := FixedScheduleInfeasible(de, model.Container{W: 32, H: 32, T: 6}, deStarts); !bad || why != "slice area" {
		t.Fatalf("DE on 32×32: (%v, %q), want the slice area bound", bad, why)
	}
	if bad, why := FixedScheduleInfeasible(de, model.Container{W: 33, H: 33, T: 6}, deStarts); bad {
		t.Fatalf("DE on 33×33 refuted by %q; it is feasible", why)
	}
	if lb := MinBaseFixedLB(de, deStarts); lb != 33 {
		t.Fatalf("MinBaseFixedLB(DE) = %d, want 33", lb)
	}
}

func TestFixedScheduleInfeasibleSlices(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 3, H: 3, Dur: 2}, {W: 3, H: 3, Dur: 2}}}
	c := model.Container{W: 5, H: 5, T: 4}
	// Together the two 3×3 squares cover 18 of 25 cells, but no two
	// fit side by side: only the conservative scales see it.
	if bad, why := FixedScheduleInfeasible(in, c, []int{0, 1}); !bad || why != "slice dual feasible functions" {
		t.Fatalf("overlapping squares: (%v, %q)", bad, why)
	}
	if bad, why := FixedScheduleInfeasible(in, c, []int{0, 2}); bad {
		t.Fatalf("squares one after the other refuted by %q", why)
	}
	wide := &model.Instance{Tasks: []model.Task{{W: 6, H: 1, Dur: 1}}}
	if bad, why := FixedScheduleInfeasible(wide, c, []int{0}); !bad || why != "task exceeds container" {
		t.Fatalf("oversized task: (%v, %q)", bad, why)
	}
}

// refFixedScheduleInfeasible applies the slice bounds at every cycle of
// the schedule, with no maximality filter.
func refFixedScheduleInfeasible(in *model.Instance, c model.Container, starts []int) bool {
	if !c.Fits(in) {
		return true
	}
	for s := 0; s < c.T; s++ {
		var ws, hs []int
		area := 0
		for v, t := range in.Tasks {
			if starts[v] <= s && s < starts[v]+t.Dur {
				ws, hs = append(ws, t.W), append(hs, t.H)
				area += t.W * t.H
			}
		}
		if area > c.W*c.H || len(ws) > 0 && dffInfeasible([]int{c.W, c.H}, [][]int{ws, hs}, 4096) {
			return true
		}
	}
	return false
}

// TestFixedScheduleInfeasibleMatchesEveryCycle: checking only the
// maximal slices at distinct start times refutes exactly what checking
// every cycle does, and the minimum side bound is one above a side the
// bound refutes.
func TestFixedScheduleInfeasibleMatchesEveryCycle(t *testing.T) {
	refuted := 0
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		in := bench.Random(rng, n, 5, 5, 0)
		starts := make([]int, n)
		T := 0
		for v, task := range in.Tasks {
			starts[v] = rng.Intn(6)
			T = max(T, starts[v]+task.Dur)
		}
		side := 1 + rng.Intn(8)
		c := model.Container{W: side, H: side + rng.Intn(2), T: T}
		got, _ := FixedScheduleInfeasible(in, c, starts)
		if want := refFixedScheduleInfeasible(in, c, starts); got != want {
			t.Fatalf("seed %d: maximal slices say %v, every cycle %v", seed, got, want)
		}
		if got {
			refuted++
		}
		lb := MinBaseFixedLB(in, starts)
		if lb > max(in.MaxW(), in.MaxH()) {
			if bad, _ := FixedScheduleInfeasible(in, model.Container{W: lb - 1, H: lb - 1, T: T}, starts); !bad {
				t.Fatalf("seed %d: side %d below MinBaseFixedLB not refuted", seed, lb-1)
			}
		}
	}
	if refuted < 300 {
		t.Fatalf("only %d of 3000 schedules refuted; corpus too weak", refuted)
	}
}

// TestFixedScheduleBoundsSaturate: chips and tasks with sides of 2^21
// and 2^32 have areas and area sums past int64. Wrapped products would
// let the slice area refute a task that fits or miss two that do not.
func TestFixedScheduleBoundsSaturate(t *testing.T) {
	for _, side := range []int{1 << 21, 1 << 32} {
		c := model.Container{W: side, H: side, T: 2}
		one := &model.Instance{Tasks: []model.Task{{W: side, H: side, Dur: 2}, {W: 1, H: 1, Dur: 1}}}
		if bad, why := FixedScheduleInfeasible(one, model.Container{W: side + 1, H: side, T: 2}, []int{0, 0}); bad {
			t.Fatalf("side %d: %q refuted a task with room beside it", side, why)
		}
		// Below saturation the sum of the two areas still exceeds the
		// chip's; a saturated sum may only miss that proof.
		if bad, _ := FixedScheduleInfeasible(one, c, []int{0, 0}); !bad && side == 1<<21 {
			t.Fatalf("side %d: a container-sized task and a unit task fit together", side)
		}
		two := &model.Instance{Tasks: []model.Task{{W: side, H: side, Dur: 1}, {W: side, H: side, Dur: 1}}}
		if bad, _ := FixedScheduleInfeasible(two, c, []int{0, 0}); !bad {
			t.Fatalf("side %d: two container-sized tasks at once not refuted", side)
		}
		if bad, why := FixedScheduleInfeasible(two, c, []int{0, 1}); bad {
			t.Fatalf("side %d: two container-sized tasks one after the other refuted by %q", side, why)
		}
		// √2·2^21 is still exact; at 2^32 the area saturates and the
		// bound may only fall back to the task side.
		if lb := MinBaseFixedLB(two, []int{0, 0}); lb < side || lb == side && side == 1<<21 {
			t.Fatalf("side %d: MinBaseFixedLB of two concurrent squares = %d", side, lb)
		}
	}
}

// TestLowerBoundsSaturate: MinTimeLB divides the volume by W·H, and
// MinBaseLB grows h until h²·T covers the volume. At sides of 2^32 the
// chip area wraps to 0, and at 2^21 with T = 2^21 h²·T wraps negative.
func TestLowerBoundsSaturate(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 1, H: 1, Dur: 3}, {W: 1, H: 1, Dur: 2}}}
	o := mustOrder(t, in)
	if lb := MinTimeLB(in, 1<<32, 1<<32, o); lb != 3 {
		t.Fatalf("MinTimeLB on a 2^32 chip = %d, want 3", lb)
	}
	const side = 1 << 21
	big := &model.Instance{Tasks: []model.Task{{W: side, H: side, Dur: side}}}
	if lb := MinBaseLB(big, side, mustOrder(t, big)); lb != side {
		t.Fatalf("MinBaseLB of one 2^21-cube = %d, want %d", lb, side)
	}
}
