package solver

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// TestRacePartialKeepsProgress: a raced MinTime that a node limit stops
// early still reports what its merged probes proved — the smallest
// feasible budget as Value, with a witness that verifies there, and one
// above the largest refuted budget as BestBound.
func TestRacePartialKeepsProgress(t *testing.T) {
	const W, H = 6, 6
	partial := 0
	for seed := int64(0); seed < 12; seed++ {
		in := bench.Random(rand.New(rand.NewSource(seed)), 14, 4, 4, 0.15)
		order, err := in.Order()
		if err != nil {
			t.Fatal(err)
		}
		_, ub, ok := heur.MinMakespan(in, W, H, order)
		if !ok {
			continue
		}
		for _, workers := range []int{2, 4} {
			var buf bytes.Buffer
			res, err := MinTime(in, W, H, Options{Workers: workers, NodeLimit: 100, Trace: obs.NewTracer(&buf)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Decision != Unknown {
				continue
			}
			partial++
			best, refuted := ub, res.LowerBound-1
			for _, e := range traceLines(t, &buf) {
				if e["ev"] != "probe" {
					continue
				}
				switch v := int(e["T"].(float64)); e["outcome"] {
				case "feasible":
					best = min(best, v)
				case "infeasible":
					refuted = max(refuted, v)
				}
			}
			if res.Value != best || res.BestBound != refuted+1 {
				t.Errorf("seed %d workers %d: partial (Value %d, BestBound %d), merged probes prove (%d, %d)",
					seed, workers, res.Value, res.BestBound, best, refuted+1)
			}
			if err := res.Placement.Verify(in, model.Container{W: W, H: H, T: res.Value}, order); err != nil {
				t.Errorf("seed %d workers %d: witness does not verify at T=%d: %v", seed, workers, res.Value, err)
			}
		}
	}
	if partial == 0 {
		t.Fatal("no run stopped at the node limit; pick other seeds")
	}
}

// FuzzSweep drives the sweep with a synthetic monotone probe — values
// at and above threshold feasible, the values flagged in limits' low
// 40 bits left undecided — over a random interval, order and worker
// count, and for a bisection a refuted prefix (floor) taken from bits
// 40–45, and checks it against a linear scan: a decided answer is the
// scan's, nothing below the floor is probed, every probe is merged
// exactly once, an undecided sweep still carries a sound (incumbent,
// bound) pair, and no goroutine outlives it. With seeded set the sweep
// starts from a feasible incumbent at hi, or as far below hi as bits
// 46–51 say, which makes an ascent probe just below it first (the
// Pareto walk's seeded ascent). That probe is one-shot, so a limit
// there never stops an ascent that the unseeded ascent decides: a
// seeded ascent must decide whenever no value up to the optimum is
// flagged.
func FuzzSweep(f *testing.F) {
	f.Add(uint8(3), uint8(17), uint8(9), uint64(0), false, uint8(2), true)
	f.Add(uint8(0), uint8(30), uint8(12), uint64(1<<12|1<<20), true, uint8(4), false)
	f.Add(uint8(5), uint8(9), uint8(60), uint64(0), true, uint8(3), false)
	f.Add(uint8(2), uint8(10), uint8(7), uint64(1<<3), false, uint8(1), false)
	f.Add(uint8(1), uint8(33), uint8(20), uint64(9<<40|1<<30), false, uint8(1), true)
	f.Add(uint8(2), uint8(20), uint8(5), uint64(1<<19), true, uint8(0), true)
	f.Add(uint8(2), uint8(20), uint8(5), uint64(6<<46|1<<13), true, uint8(2), true)
	f.Add(uint8(2), uint8(20), uint8(16), uint64(6<<46|1<<13), true, uint8(0), true)
	f.Fuzz(func(t *testing.T, lo8, width, threshold8 uint8, limits uint64, ascend bool, workers8 uint8, seeded bool) {
		lo := int(lo8 % 32)
		hi := lo + int(width%40)
		threshold := int(threshold8 % 80)
		seedAt := hi
		if seeded {
			threshold = min(threshold, hi)
			seedAt = max(hi-int(limits>>46&63), threshold, lo) // feasible
		}
		undecided := func(v int) bool { return v-lo < 40 && limits>>(v-lo)&1 == 1 }
		floor := 0
		if !ascend {
			floor = min(lo+int(limits>>40&63), max(lo, threshold), hi)
		}
		before := runtime.NumGoroutine()
		var calls, belowFloor atomic.Int64
		probe := func(ctx context.Context, _ Options, v int) (*OPPResult, struct{}, error) {
			calls.Add(1)
			if v < floor {
				belowFloor.Add(1)
			}
			runtime.Gosched()
			r := &OPPResult{DecidedBy: "search"}
			r.Stats.Nodes = 1
			switch {
			case ctx.Err() != nil:
				r.Decision, r.DecidedBy = Unknown, "canceled"
			case undecided(v):
				r.Decision, r.DecidedBy = Unknown, "limit"
			case v >= threshold:
				r.Decision, r.Placement = Feasible, &model.Placement{X: []int{v}}
			default:
				r.Decision = Infeasible
			}
			return r, struct{}{}, nil
		}
		s := testSweep(1+int(workers8%4), lo, hi, ascend, probe)
		s.floor = floor
		if seeded {
			s.improve(seedAt, &model.Placement{X: []int{seedAt}}, struct{}{}, "heuristic")
		}
		if err := s.search(context.Background()); err != nil {
			t.Fatal(err)
		}

		// The linear scan lo, lo+1, …, hi answers at max(lo, threshold).
		opt, want, limited, limitedToOpt := max(lo, threshold), Feasible, false, false
		if opt > hi {
			want = Infeasible
		}
		for v := lo; v <= hi; v++ {
			limited = limited || undecided(v)
			limitedToOpt = limitedToOpt || v <= opt && undecided(v)
		}
		switch d := s.decision(); {
		case d == Unknown && !limited:
			t.Fatalf("undecided without a limit hit (bound %d, best %d)", s.bound, s.best)
		case d == Unknown && ascend && !limitedToOpt:
			t.Fatalf("undecided ascent with no limit up to the optimum %d (bound %d, best %d)", opt, s.bound, s.best)
		case d != Unknown && d != want:
			t.Fatalf("decided %v, the scan says %v", d, want)
		case d == Feasible && s.best != opt:
			t.Fatalf("optimum %d, the scan says %d", s.best, opt)
		case s.bound > min(opt, hi+1) || s.best < min(opt, hi+1):
			t.Fatalf("unsound pair (bound %d, best %d) around optimum %d", s.bound, s.best, opt)
		case s.best <= hi && s.witness.X[0] != s.best:
			t.Fatalf("incumbent %d carries the witness of %d", s.best, s.witness.X[0])
		}
		if n := belowFloor.Load(); n > 0 {
			t.Fatalf("%d probes below the refuted floor %d", n, floor)
		}
		if n := calls.Load(); int64(s.Probes) != n || s.Stats.Nodes != n {
			t.Fatalf("%d probes ran, %d merged with %d nodes", n, s.Probes, s.Stats.Nodes)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines after the sweep, %d before", n, before)
		}
	})
}

// TestTraceEveryDriverBracketsItsRun: every optimization driver opens
// its run with solve_start and closes it with one solve_end and one
// driver span of its mode, whatever loop it used to own.
func TestTraceEveryDriverBracketsItsRun(t *testing.T) {
	de := bench.DE()
	order, err := de.Order()
	if err != nil {
		t.Fatal(err)
	}
	greedy, _, _ := heur.MinMakespan(de, 17, 17, order)
	drivers := []struct {
		mode string
		run  func(Options) error
	}{
		{"spp", func(o Options) error { _, err := MinTime(de, 17, 17, o); return err }},
		{"bmp", func(o Options) error { _, err := MinBase(de, 13, o); return err }},
		{"bmp_fixed", func(o Options) error {
			_, err := MinBaseFixedScheduleCtx(context.Background(), de, greedy.S, o)
			return err
		}},
		{"minarea", func(o Options) error { _, err := MinArea(de, 13, o); return err }},
		{"multichip", func(o Options) error { _, err := MinChips(de, 16, 16, 14, o); return err }},
		{"spp_multichip", func(o Options) error { _, err := MinTimeMultiChip(de, 33, 16, 2, o); return err }},
		{"spp_rotate", func(o Options) error { _, _, err := MinTimeWithRotation(de, 17, 17, o); return err }},
		{"bmp_rotate", func(o Options) error { _, _, err := MinBaseWithRotation(de, 13, o); return err }},
		{"pareto", func(o Options) error { _, err := ParetoFront(de, o); return err }},
	}
	for _, d := range drivers {
		var buf bytes.Buffer
		if err := d.run(Options{Trace: obs.NewTracer(&buf)}); err != nil {
			t.Fatalf("%s: %v", d.mode, err)
		}
		starts, ends, spans := 0, 0, 0
		for _, e := range traceLines(t, &buf) {
			switch {
			case e["ev"] == "solve_start" && e["mode"] == d.mode:
				starts++
			case e["ev"] == "solve_end" && e["mode"] == d.mode:
				ends++
				if e["decision"] != "feasible" {
					t.Errorf("%s: solve_end %v", d.mode, e)
				}
			case e["ev"] == "span" && e["name"] == d.mode:
				spans++
			}
		}
		if starts != 1 || ends != 1 || spans != 1 {
			t.Errorf("%s: %d solve_start, %d solve_end, %d driver spans; want one each", d.mode, starts, ends, spans)
		}
	}
}
