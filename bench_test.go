package fpga3d

import (
	"math/rand"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/geomsearch"
	"fpga3d/internal/model"
	"fpga3d/internal/solver"
)

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation (Section 5) and the ablation studies of
// DESIGN.md §6. Run them with
//
//	go test -bench=. -benchmem
//
// Wall-clock values are not compared against the paper's 2000-era Sun
// Ultra 30 CPU seconds; the shape of the results (which case is hard,
// which configuration collapses) is what matters. EXPERIMENTS.md records
// a full run.

// --- Table 1: BMP (MinA&FindS) on the DE benchmark --------------------

func benchTable1(b *testing.B, T, wantH int) {
	de := BenchmarkDE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := MinimizeChip(de, T, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != Feasible || r.Value != wantH {
			b.Fatalf("T=%d: chip %d (%v), want %d", T, r.Value, r.Decision, wantH)
		}
	}
}

func BenchmarkTable1_T6(b *testing.B)  { benchTable1(b, 6, 32) }
func BenchmarkTable1_T13(b *testing.B) { benchTable1(b, 13, 17) }
func BenchmarkTable1_T14(b *testing.B) { benchTable1(b, 14, 16) }

// BenchmarkTable1_T6_SearchOnly forces the hardest Table-1 row through
// the raw packing-class branch and bound (no bounds, no heuristic) —
// the configuration whose 55.76 s the paper reports.
func BenchmarkTable1_T6_SearchOnly(b *testing.B) {
	de := bench.DE()
	opt := solver.Options{SkipBounds: true, SkipHeuristic: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.MinBase(de, 6, opt)
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible || r.Value != 32 {
			b.Fatalf("got %d (%v)", r.Value, r.Decision)
		}
	}
}

// --- Table 2: the video codec -----------------------------------------

func BenchmarkTable2_VideoCodec_MinLatency(b *testing.B) {
	vc := BenchmarkVideoCodec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := MinimizeTime(vc, 64, 64, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != Feasible || r.Value != 59 {
			b.Fatalf("latency %d (%v), want 59", r.Value, r.Decision)
		}
	}
}

func BenchmarkTable2_VideoCodec_MinChip(b *testing.B) {
	vc := BenchmarkVideoCodec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := MinimizeChip(vc, 59, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != Feasible || r.Value != 64 {
			b.Fatalf("chip %d (%v), want 64", r.Value, r.Decision)
		}
	}
}

// --- Figure 7: the Pareto fronts ---------------------------------------

func BenchmarkFig7_WithPrecedence(b *testing.B) {
	de := BenchmarkDE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := Pareto(de, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 3 {
			b.Fatalf("points = %v", pts)
		}
	}
}

func BenchmarkFig7_NoPrecedence(b *testing.B) {
	de := BenchmarkDE().WithoutPrecedence()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := Pareto(de, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 4 {
			b.Fatalf("points = %v", pts)
		}
	}
}

// --- Ablations (DESIGN.md §6) ------------------------------------------

// ablationCases is the four-case DE workload used for rule ablations:
// two feasible and two infeasible decisions.
var ablationCases = []model.Container{
	{W: 32, H: 32, T: 6},
	{W: 17, H: 17, T: 13},
	{W: 16, H: 16, T: 13},
	{W: 31, H: 31, T: 12},
}

func benchAblation(b *testing.B, opt solver.Options, requireDecided bool) {
	de := bench.DE()
	opt.NodeLimit = 200_000 // keeps crippled configurations bounded
	opt.TimeLimit = 30 * time.Second
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		for _, c := range ablationCases {
			r, err := solver.SolveOPP(de, c, opt)
			if err != nil {
				b.Fatal(err)
			}
			nodes += r.Stats.Nodes
			if requireDecided && r.Decision == solver.Unknown {
				b.Fatalf("%v undecided", c)
			}
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

func BenchmarkAblation_FullFramework(b *testing.B) {
	benchAblation(b, solver.Options{}, true)
}

func BenchmarkAblation_SearchOnly(b *testing.B) {
	benchAblation(b, solver.Options{SkipBounds: true, SkipHeuristic: true}, true)
}

func BenchmarkAblation_NoC4Rule(b *testing.B) {
	benchAblation(b, solver.Options{SkipBounds: true, SkipHeuristic: true,
		DisableC4Rule: true}, false)
}

func BenchmarkAblation_NoHoleRule(b *testing.B) {
	benchAblation(b, solver.Options{SkipBounds: true, SkipHeuristic: true,
		DisableHoleRule: true}, true)
}

func BenchmarkAblation_NoCliqueRules(b *testing.B) {
	benchAblation(b, solver.Options{SkipBounds: true, SkipHeuristic: true,
		DisableCliqueRule: true, DisableCliqueForce: true}, false)
}

// BenchmarkAblation_NoOrientRules is the Section 4.2 strawman: the
// D1/D2 implication closure is switched off during the search and
// orientation consistency is only tested at the leaves ("Korte–Möhring
// as a black box"), which the paper predicts to be hopeless.
func BenchmarkAblation_NoOrientRules(b *testing.B) {
	benchAblation(b, solver.Options{SkipBounds: true, SkipHeuristic: true,
		DisableOrientRules: true}, false)
}

// --- Baseline: packing classes vs geometric enumeration ----------------

// The geometric baseline (the [2]/[15]-style position tree search the
// paper argues against) is compared on the two easy Table-1 rows.
// It is node-capped: without the cap it does not finish the T=6 row at
// all, which is the paper's point.
func BenchmarkBaseline_Geometric_T14(b *testing.B) {
	de := bench.DE()
	o, err := de.Order()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := geomsearch.Solve(de, model.Container{W: 16, H: 16, T: 14}, o,
			geomsearch.Options{NodeLimit: 10_000_000})
		if r.Status != geomsearch.Feasible {
			b.Fatalf("status %v", r.Status)
		}
	}
}

func BenchmarkBaseline_PackingClass_T14(b *testing.B) {
	de := bench.DE()
	opt := solver.Options{SkipBounds: true, SkipHeuristic: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.SolveOPP(de, model.Container{W: 16, H: 16, T: 14}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible {
			b.Fatalf("decision %v", r.Decision)
		}
	}
}

// The infeasibility proof at 17×17×12 is where the gap opens: the
// geometric search needs ~10.4 M nodes, the packing-class cascade
// settles it at the root. (At 31×31×12 the baseline does not terminate
// within a minute at all; that case is documented in EXPERIMENTS.md and
// kept out of the benchmark loop.)
func BenchmarkBaseline_Geometric_T12Infeasible(b *testing.B) {
	de := bench.DE()
	o, err := de.Order()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := geomsearch.Solve(de, model.Container{W: 17, H: 17, T: 12}, o,
			geomsearch.Options{NodeLimit: 20_000_000})
		if r.Status != geomsearch.Infeasible {
			b.Fatalf("status %v", r.Status)
		}
	}
}

func BenchmarkBaseline_PackingClass_T12Infeasible(b *testing.B) {
	de := bench.DE()
	opt := solver.Options{SkipBounds: true, SkipHeuristic: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.SolveOPP(de, model.Container{W: 17, H: 17, T: 12}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Infeasible {
			b.Fatalf("decision %v", r.Decision)
		}
	}
}

// --- Micro-benchmarks of the engine stages ------------------------------

func BenchmarkStage1_Bounds(b *testing.B) {
	de := bench.DE()
	o, err := de.Order()
	if err != nil {
		b.Fatal(err)
	}
	_ = o
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.SolveOPP(de, model.Container{W: 16, H: 16, T: 12},
			solver.Options{SkipHeuristic: true})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Infeasible {
			b.Fatalf("decision %v", r.Decision)
		}
	}
}

func BenchmarkStage2_Heuristic(b *testing.B) {
	de := bench.DE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.SolveOPP(de, model.Container{W: 32, H: 32, T: 6},
			solver.Options{SkipBounds: true})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible || r.DecidedBy != "heuristic" {
			b.Fatalf("decided by %s (%v)", r.DecidedBy, r.Decision)
		}
	}
}

// --- Extension experiments (beyond the paper's evaluation) -------------

// Scalable HLS workload families on the DE module library.
func benchHLSMinTime(b *testing.B, in *model.Instance, w, h, wantT int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.MinTime(in, w, h, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible || r.Value != wantT {
			b.Fatalf("T = %d (%v), want %d", r.Value, r.Decision, wantT)
		}
	}
}

func BenchmarkHLS_FIR8_Serialized(b *testing.B) { benchHLSMinTime(b, bench.FIR(8), 16, 16, 19) }
func BenchmarkHLS_FIR8_Parallel(b *testing.B)   { benchHLSMinTime(b, bench.FIR(8), 32, 32, 7) }
func BenchmarkHLS_FIR16(b *testing.B)           { benchHLSMinTime(b, bench.FIR(16), 48, 48, 8) }
func BenchmarkHLS_Biquad3_Tight(b *testing.B)   { benchHLSMinTime(b, bench.Biquad(3), 17, 17, 31) }
func BenchmarkHLS_Biquad3_Relaxed(b *testing.B) { benchHLSMinTime(b, bench.Biquad(3), 32, 32, 20) }
func BenchmarkHLS_FFT8(b *testing.B)            { benchHLSMinTime(b, bench.FFT(8), 32, 32, 9) }

// Rectangular chip minimization (MinimizeChipArea): the DE benchmark at
// T=6 fits 768 cells although the smallest square needs 1024.
func BenchmarkExtension_MinArea_DE_T6(b *testing.B) {
	de := bench.DE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.MinArea(de, 6, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible || r.Area != 768 {
			b.Fatalf("area = %d (%v)", r.Area, r.Decision)
		}
	}
}

// Rotation enumeration over the DE ALU modules (2^5 orientations, all
// refuted or confirmed exactly).
func BenchmarkExtension_Rotation_DE(b *testing.B) {
	de := bench.DE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.SolveOPPWithRotation(de, model.Container{W: 32, H: 32, T: 6}, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible {
			b.Fatalf("decision %v", r.Decision)
		}
	}
}

// Scaling of the full framework with instance size (layered random
// DAGs at a moderately tight horizon: critical path + 2).
func benchScaling(b *testing.B, layers int) {
	rng := rand.New(rand.NewSource(42))
	in := bench.RandomLayered(rng, layers, 4, 6, 3, 0.4)
	order, err := in.Order()
	if err != nil {
		b.Fatal(err)
	}
	c := model.Container{W: 10, H: 10, T: order.CriticalPath() + 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.SolveOPP(in, c, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision == solver.Unknown {
			b.Fatal("undecided")
		}
	}
}

func BenchmarkScaling_Layered3(b *testing.B) { benchScaling(b, 3) }
func BenchmarkScaling_Layered5(b *testing.B) { benchScaling(b, 5) }
func BenchmarkScaling_Layered7(b *testing.B) { benchScaling(b, 7) }
func BenchmarkScaling_Layered9(b *testing.B) { benchScaling(b, 9) }

// Multi-FPGA partitioning: minimal number of 16x16 chips for the DE
// benchmark at the critical-path latency (the chip index is a fourth
// packing dimension).
func BenchmarkExtension_MinChips_DE_T6(b *testing.B) {
	de := bench.DE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.MinChips(de, 16, 16, 6, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible || r.Chips != 3 {
			b.Fatalf("chips = %d (%v)", r.Chips, r.Decision)
		}
	}
}

func BenchmarkFixedSchedule_DE(b *testing.B) {
	de := bench.DE()
	starts := []int{0, 0, 2, 4, 5, 0, 2, 0, 2, 0, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.MinBaseFixedSchedule(de, starts, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible || r.Value != 33 {
			b.Fatalf("chip %d (%v)", r.Value, r.Decision)
		}
	}
}

// --- Parallel sweeps (Options.Workers racing) ----

// benchParallelBMP runs the hardest Table-1 row search-only — the one
// configuration on the shipped benchmarks where the raced probes expend
// real branch-and-bound effort — with a given pool size. Workers > 1
// must reproduce the sequential optimum bit for bit; wall-clock gains
// require actual spare cores (see EXPERIMENTS.md).
func benchParallelBMP(b *testing.B, workers int) {
	de := bench.DE()
	opt := solver.Options{SkipBounds: true, SkipHeuristic: true, Workers: workers}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := solver.MinBase(de, 6, opt)
		if err != nil {
			b.Fatal(err)
		}
		if r.Decision != solver.Feasible || r.Value != 32 {
			b.Fatalf("got %d (%v)", r.Value, r.Decision)
		}
	}
}

func BenchmarkParallel_BMP_DE_T6_Workers1(b *testing.B) { benchParallelBMP(b, 1) }
func BenchmarkParallel_BMP_DE_T6_Workers4(b *testing.B) { benchParallelBMP(b, 4) }
func BenchmarkParallel_BMP_DE_T6_Workers8(b *testing.B) { benchParallelBMP(b, 8) }

// BenchmarkParallel_Pareto_DE races the whole Figure-7 Pareto walk.
func BenchmarkParallel_Pareto_DE(b *testing.B) {
	de := BenchmarkDE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := Pareto(de, &Options{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 3 {
			b.Fatalf("front has %d points, want 3", len(pts))
		}
	}
}
