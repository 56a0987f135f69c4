// Command paper regenerates every table and figure of the paper's
// evaluation section (Section 5) with the exact solver and prints them
// next to the published values:
//
//	paper -table1    Table 1: BMP on the DE benchmark
//	paper -table2    Table 2: the video codec
//	paper -fig7      Figure 7: the Pareto fronts with/without precedence
//	paper -ablation  the rule/stage ablation study of DESIGN.md §6
//	paper -parallel  sequential vs. racing-worker-pool comparison
//	paper -all       everything
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"fpga3d"
	"fpga3d/internal/bench"
	"fpga3d/internal/model"
	"fpga3d/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	var (
		t1         = flag.Bool("table1", false, "regenerate Table 1 (DE benchmark)")
		t2         = flag.Bool("table2", false, "regenerate Table 2 (video codec)")
		f7         = flag.Bool("fig7", false, "regenerate Figure 7 (Pareto fronts)")
		ablation   = flag.Bool("ablation", false, "run the ablation study")
		extensions = flag.Bool("extensions", false, "run the beyond-the-paper experiments")
		par        = flag.Bool("parallel", false, "compare sequential vs. racing-worker-pool sweeps")
		all        = flag.Bool("all", false, "everything")
	)
	flag.Parse()
	if *all {
		*t1, *t2, *f7, *ablation, *extensions, *par = true, true, true, true, true, true
	}
	if !*t1 && !*t2 && !*f7 && !*ablation && !*extensions && !*par {
		flag.Usage()
		return
	}
	if *t1 {
		table1()
	}
	if *t2 {
		table2()
	}
	if *f7 {
		fig7()
	}
	if *ablation {
		ablationStudy()
	}
	if *extensions {
		extensionStudy()
	}
	if *par {
		parallelStudy()
	}
}

// parallelStudy compares the sequential optimization sweeps against the
// racing worker pool (Options.Workers) on workloads where the probes
// expend real search effort, and checks that the optima agree. Node
// counts grow under racing (speculative probes); wall-clock shrinks
// only when the host actually has spare cores.
func parallelStudy() {
	fmt.Printf("Parallel sweeps — sequential vs. %d racing workers (GOMAXPROCS=%d)\n",
		parallelWorkers, runtime.GOMAXPROCS(0))
	de := bench.DE()
	vc := bench.VideoCodec()
	searchOnly := solver.Options{SkipBounds: true, SkipHeuristic: true}
	rows := []struct {
		name string
		opt  solver.Options
		run  func(opt solver.Options) (*solver.OptResult, error)
	}{
		// Search-only makes every probe a real branch-and-bound run, so
		// the speculative-node overhead of racing becomes visible.
		{"DE BMP T=6 (search only)", searchOnly, func(o solver.Options) (*solver.OptResult, error) {
			return solver.MinBase(de, 6, o)
		}},
		{"DE BMP T=6 (full framework)", solver.Options{}, func(o solver.Options) (*solver.OptResult, error) {
			return solver.MinBase(de, 6, o)
		}},
		{"DE BMP T=13 (full framework)", solver.Options{}, func(o solver.Options) (*solver.OptResult, error) {
			return solver.MinBase(de, 13, o)
		}},
		{"codec BMP T=59 (full framework)", solver.Options{}, func(o solver.Options) (*solver.OptResult, error) {
			return solver.MinBase(vc, 59, o)
		}},
	}
	fmt.Printf("  %-34s %8s %6s %7s %7s %12s\n", "workload", "workers", "value", "probes", "nodes", "time")
	for _, row := range rows {
		var seqValue int
		for _, workers := range []int{1, parallelWorkers} {
			opt := row.opt
			opt.Workers = workers
			r, err := row.run(opt)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-34s %8d %6d %7d %7d %12v\n",
				row.name, workers, r.Value, r.Probes, r.Stats.Nodes, r.Elapsed.Round(time.Microsecond))
			if workers == 1 {
				seqValue = r.Value
			} else if r.Value != seqValue {
				log.Fatalf("%s: parallel optimum %d != sequential %d", row.name, r.Value, seqValue)
			}
		}
	}
	fmt.Println()
}

// parallelWorkers is the pool size used by -parallel; fixed rather than
// GOMAXPROCS so the reported numbers are comparable across hosts.
const parallelWorkers = 8

// extensionStudy regenerates the beyond-the-paper experiment tables of
// EXPERIMENTS.md: rectangular chips, multi-FPGA partitioning, and the
// HLS workload families.
func extensionStudy() {
	fmt.Println("Extensions — rectangular chips (BMP without the square restriction)")
	de := bench.DE()
	for _, T := range []int{6, 13} {
		sq, err := solver.MinBase(de, T, solver.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rect, err := solver.MinArea(de, T, solver.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  DE T=%-3d square %dx%d = %d cells   rectangle %dx%d = %d cells\n",
			T, sq.Value, sq.Value, sq.Value*sq.Value, rect.W, rect.H, rect.Area)
	}

	fmt.Println("\nExtensions — multi-FPGA partitioning (16x16 chips)")
	fmt.Println("  minimal fleet per latency bound:")
	for _, T := range []int{6, 8, 10, 12, 14} {
		r, err := solver.MinChips(de, 16, 16, T, solver.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    T=%-3d → %d chips\n", T, r.Chips)
	}
	fmt.Println("  minimal latency per fleet size:")
	for k := 1; k <= 3; k++ {
		mt, err := solver.MinTimeMultiChip(de, 16, 16, k, solver.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    k=%d → T=%d\n", k, mt.MinTime)
	}

	fmt.Println("\nExtensions — HLS workload families (minimal latency, exact)")
	for _, w := range []struct {
		in   *model.Instance
		side int
	}{
		{bench.FIR(8), 16}, {bench.FIR(8), 32}, {bench.FIR(16), 48},
		{bench.Biquad(3), 17}, {bench.Biquad(3), 32},
		{bench.FFT(8), 32},
	} {
		r, err := solver.MinTime(w.in, w.side, w.side, solver.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s on %2dx%-2d  T = %d\n", w.in.Name, w.side, w.side, r.Value)
	}
	fmt.Println()
}

func table1() {
	fmt.Println("Table 1 — DE benchmark, minimal square chip per latency bound")
	fmt.Println("  (paper: T=6 → 32x32 in 55.76s; T=13 → 17x17 in 0.04s; T=14 → 16x16 in 0.03s, Sun Ultra 30)")
	fmt.Printf("  %4s  %10s  %10s  %8s  %12s\n", "T", "chip", "paper", "nodes", "time")
	de := fpga3d.BenchmarkDE()
	paper := map[int]string{6: "32x32", 13: "17x17", 14: "16x16"}
	for _, T := range []int{6, 13, 14} {
		r, err := fpga3d.MinimizeChip(de, T, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4d  %7dx%-3d %10s  %8d  %12v\n",
			T, r.Value, r.Value, paper[T], r.Nodes, r.Elapsed.Round(time.Microsecond))
	}
	fmt.Println()
}

func table2() {
	fmt.Println("Table 2 — video codec (H.261)")
	fmt.Println("  (paper: latency 59 on the minimal chip 64x64 in 24.87s, Sun Ultra 30)")
	vc := fpga3d.BenchmarkVideoCodec()
	start := time.Now()
	minH, err := fpga3d.MinimizeChip(vc, 59, nil)
	if err != nil {
		log.Fatal(err)
	}
	minT, err := fpga3d.MinimizeTime(vc, 64, 64, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  minimal chip for T=59:     %dx%d   (paper: 64x64)\n", minH.Value, minH.Value)
	fmt.Printf("  minimal latency on 64x64:  %d      (paper: 59)\n", minT.Value)
	fmt.Printf("  total time: %v\n\n", time.Since(start).Round(time.Microsecond))
}

func fig7() {
	fmt.Println("Figure 7 — Pareto-optimal chip/time points for the DE benchmark")
	de := fpga3d.BenchmarkDE()
	solid, err := fpga3d.Pareto(de, nil)
	if err != nil {
		log.Fatal(err)
	}
	dashed, err := fpga3d.Pareto(de.WithoutPrecedence(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  (a) with precedence constraints (paper: h=32 for T∈[6,12], 17 for T=13, 16 for T≥14):")
	for _, p := range solid {
		fmt.Printf("      T=%3d → %dx%d\n", p.T, p.H, p.H)
	}
	fmt.Println("  (b) without precedence constraints (dashed in the paper):")
	for _, p := range dashed {
		fmt.Printf("      T=%3d → %dx%d\n", p.T, p.H, p.H)
	}
	fmt.Println()
}

// ablationStudy measures search effort on the DE and codec workloads
// with individual stages and rules disabled (DESIGN.md §6).
func ablationStudy() {
	fmt.Println("Ablation — search nodes to decide DE cases with stages/rules disabled")
	fmt.Println("  (cases: 32x32x6 feasible, 17x17x13 feasible, 16x16x13 infeasible, 31x31x12 infeasible)")
	de := bench.DE()
	cases := []model.Container{
		{W: 32, H: 32, T: 6},
		{W: 17, H: 17, T: 13},
		{W: 16, H: 16, T: 13},
		{W: 31, H: 31, T: 12},
	}
	variants := []struct {
		name string
		opt  solver.Options
	}{
		{"full framework", solver.Options{}},
		{"search only (no bounds/heuristic)", solver.Options{SkipBounds: true, SkipHeuristic: true}},
		{"search, no C4 rule", solver.Options{SkipBounds: true, SkipHeuristic: true, DisableC4Rule: true}},
		{"search, no clique rules", solver.Options{SkipBounds: true, SkipHeuristic: true, DisableCliqueRule: true, DisableCliqueForce: true}},
		{"search, no D1/D2 closure", solver.Options{SkipBounds: true, SkipHeuristic: true, DisableOrientRules: true}},
	}
	for _, v := range variants {
		v.opt.NodeLimit = 2_000_000
		v.opt.TimeLimit = 60 * time.Second
		var nodes int64
		var elapsed time.Duration
		undecided := 0
		for _, c := range cases {
			r, err := solver.SolveOPP(de, c, v.opt)
			if err != nil {
				log.Fatal(err)
			}
			nodes += r.Stats.Nodes
			elapsed += r.Elapsed
			if r.Decision == solver.Unknown {
				undecided++
			}
		}
		status := ""
		if undecided > 0 {
			status = fmt.Sprintf("  (%d cases hit the limit!)", undecided)
		}
		fmt.Printf("  %-36s %9d nodes  %12v%s\n", v.name, nodes, elapsed.Round(time.Microsecond), status)
	}
	fmt.Println()
}
