package fpga3d_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"fpga3d"
)

// ExampleSolve decides whether a small task graph fits a chip within a
// time budget.
func ExampleSolve() {
	in := fpga3d.NewInstance("example")
	m1 := in.AddTask("mul1", 16, 16, 2)
	m2 := in.AddTask("mul2", 16, 16, 2)
	add := in.AddTask("add", 16, 1, 1)
	in.AddPrecedence(m1, add)
	in.AddPrecedence(m2, add)

	res, err := fpga3d.Solve(in, fpga3d.Chip{W: 32, H: 32, T: 3}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Decision)
	// Output: feasible
}

// ExampleMinimizeChip reproduces a row of the paper's Table 1: the
// smallest square chip that completes the DE benchmark in 13 cycles.
func ExampleMinimizeChip() {
	res, err := fpga3d.MinimizeChip(fpga3d.BenchmarkDE(), 13, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%dx%d\n", res.Value, res.Value)
	// Output: 17x17
}

// ExampleMinimizeTime reproduces the paper's Table 2: the minimal
// latency of the H.261 video codec on the 64×64 chip.
func ExampleMinimizeTime() {
	res, err := fpga3d.MinimizeTime(fpga3d.BenchmarkVideoCodec(), 64, 64, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Value)
	// Output: 59
}

// ExamplePareto computes the trade-off curve of Figure 7(a).
func ExamplePareto() {
	pts, err := fpga3d.Pareto(fpga3d.BenchmarkDE(), nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("T=%d h=%d\n", p.T, p.H)
	}
	// Output:
	// T=6 h=32
	// T=13 h=17
	// T=14 h=16
}

// ExampleInstance_WithoutPrecedence contrasts the constrained and
// unconstrained optima (the two curves of Figure 7).
func ExampleInstance_WithoutPrecedence() {
	de := fpga3d.BenchmarkDE()
	with, _ := fpga3d.MinimizeTime(de, 32, 32, nil)
	without, _ := fpga3d.MinimizeTime(de.WithoutPrecedence(), 32, 32, nil)
	fmt.Printf("with=%d without=%d\n", with.Value, without.Value)
	// Output: with=6 without=4
}

// ExampleSolveWithRotation shows the rotation extension: two tall
// modules fit a flat chip only when rotated.
func ExampleSolveWithRotation() {
	in := fpga3d.NewInstance("rot")
	in.AddTask("a", 1, 4, 1)
	in.AddTask("b", 1, 4, 1)
	chip := fpga3d.Chip{W: 4, H: 2, T: 1}

	plain, _ := fpga3d.Solve(in, chip, nil)
	rotated, _ := fpga3d.SolveWithRotation(in, chip, nil)
	fmt.Printf("fixed=%v rotated=%v\n", plain.Decision, rotated.Decision)
	// Output: fixed=infeasible rotated=feasible
}

// ExampleMinimizeChipCtx runs the chip minimization with a pool of
// workers racing independent feasibility probes under a deadline. The
// answer is bit-identical to the sequential sweep; if the deadline
// expired first, the error would be context.DeadlineExceeded and the
// returned result would carry the partial statistics gathered so far.
func ExampleMinimizeChipCtx() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	opt := &fpga3d.Options{Workers: 4} // parallelism is opt-in; 0 is sequential
	res, err := fpga3d.MinimizeChipCtx(ctx, fpga3d.BenchmarkDE(), 13, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v %dx%d\n", res.Decision, res.Value, res.Value)
	// Output: feasible 17x17
}

// ExampleSolve_workers answers a single feasibility question with an
// intra-probe work-stealing pool: Workers > 1 on a plain Solve shares
// one branch-and-bound tree across workers instead of racing sweep
// probes (there is no sweep to race). The decision is always equal to
// the sequential run's; the witness placement and node counts may
// differ between runs, which is why only the decision is printed here.
func ExampleSolve_workers() {
	de := fpga3d.BenchmarkDE()
	chip := fpga3d.Chip{W: 17, H: 17, T: 13}

	// Skipping the bound/heuristic stages forces the exact search, so
	// the pool actually runs; real callers keep the stages on.
	opt := &fpga3d.Options{Workers: 4, SkipBounds: true, SkipHeuristic: true}
	res, err := fpga3d.Solve(de, chip, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Decision)
	// Output: feasible
}

// ExampleFixedSchedule checks a prescribed schedule for spatial
// feasibility (the paper's FeasA&FixedS problem).
func ExampleFixedSchedule() {
	in := fpga3d.NewInstance("fixed")
	a := in.AddTask("a", 2, 2, 2)
	b := in.AddTask("b", 2, 2, 1)
	in.AddPrecedence(a, b)

	res, err := fpga3d.FixedSchedule(in, fpga3d.Chip{W: 2, H: 2, T: 3}, []int{0, 2}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Decision)
	// Output: feasible
}
