package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/strategy"
)

// fakeProbe builds a probeFunc over a synthetic monotone predicate:
// values >= threshold are feasible, smaller ones infeasible. Each call
// burns a little wall time so cancellation actually races, and honors
// ctx like the real solveOPP (returning a "canceled" result, nil error).
func fakeProbe(threshold int, delay time.Duration, calls *atomic.Int64) probeFunc[struct{}] {
	return func(ctx context.Context, _ Options, v int) (*OPPResult, struct{}, error) {
		calls.Add(1)
		select {
		case <-ctx.Done():
			return &OPPResult{Decision: Unknown, DecidedBy: "canceled"}, struct{}{}, nil
		case <-time.After(delay):
		}
		r := &OPPResult{DecidedBy: "search"}
		r.Stats.Nodes = 1
		if v >= threshold {
			r.Decision = Feasible
			r.Placement = &model.Placement{X: []int{v}} // value-tagged witness
		} else {
			r.Decision = Infeasible
		}
		return r, struct{}{}, nil
	}
}

// testSweep is a raced sweep over [lo, hi] on a bare run at the given
// worker count.
func testSweep[P any](workers, lo, hi int, ascend bool, probe probeFunc[P]) *sweep[P] {
	r := &driverRun{opt: Options{Workers: workers}, mode: "test", start: time.Now()}
	s := newSweep(r, "v", lo, hi, ascend, probe)
	s.raced = true
	return s
}

func TestRaceAscendingFindsThreshold(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, threshold := range []int{3, 7, 15, 20} {
			var calls atomic.Int64
			s := testSweep(workers, 3, 20, true, fakeProbe(threshold, time.Millisecond, &calls))
			err := s.search(context.Background())
			if err != nil {
				t.Fatalf("workers=%d threshold=%d: %v", workers, threshold, err)
			}
			if d := s.decision(); d != Feasible || s.best != threshold {
				t.Fatalf("workers=%d threshold=%d: got %v at %d", workers, threshold, d, s.best)
			}
			if s.witness == nil || s.witness.X[0] != threshold {
				t.Fatalf("workers=%d threshold=%d: witness from wrong probe: %+v", workers, threshold, s.witness)
			}
			if int64(s.Probes) != calls.Load() {
				t.Fatalf("workers=%d threshold=%d: %d probes launched but %d merged",
					workers, threshold, calls.Load(), s.Probes)
			}
		}
	}
}

func TestRaceAscendingInfeasibleRange(t *testing.T) {
	var calls atomic.Int64
	s := testSweep(4, 3, 20, true, fakeProbe(100, time.Millisecond, &calls))
	if err := s.search(context.Background()); err != nil || s.decision() != Infeasible {
		t.Fatalf("got %v, %v; want infeasible", s.decision(), err)
	}
}

func TestRaceAscendingParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	s := testSweep(4, 3, 20, true, fakeProbe(100, time.Millisecond, &calls))
	if err := s.search(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRaceBinaryFindsThreshold(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, threshold := range []int{3, 7, 19, 20} {
			var calls atomic.Int64
			s := testSweep(workers, 3, 20, false, fakeProbe(threshold, time.Millisecond, &calls))
			seed := &model.Placement{X: []int{-1}} // the caller's witness at hi
			s.improve(20, seed, struct{}{}, "heuristic")
			if err := s.search(context.Background()); err != nil {
				t.Fatalf("workers=%d threshold=%d: %v", workers, threshold, err)
			}
			if d := s.decision(); d != Feasible || s.best != threshold {
				t.Fatalf("workers=%d threshold=%d: got %v at %d", workers, threshold, d, s.best)
			}
			// The caller's witness stands exactly when hi itself is
			// optimal; otherwise the witness is the probe's at the optimum.
			want := threshold
			if threshold == 20 {
				want = -1
			}
			if s.witness.X[0] != want {
				t.Fatalf("workers=%d threshold=%d: witness from wrong probe: %+v", workers, threshold, s.witness)
			}
			if int64(s.Probes) != calls.Load() {
				t.Fatalf("workers=%d threshold=%d: %d probes launched but %d merged",
					workers, threshold, calls.Load(), s.Probes)
			}
		}
	}
}

// TestRaceBinaryProbePanic: a probe that panics fails the sweep with
// an error that carries the panic value and its stack, and is counted
// in the metrics; the probes still in flight are drained and merged,
// and no probe goroutine outlives the sweep.
func TestRaceBinaryProbePanic(t *testing.T) {
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	inner := fakeProbe(7, 5*time.Millisecond, &calls)
	probe := func(ctx context.Context, opt Options, v int) (*OPPResult, struct{}, error) {
		if v == 11 { // the first bisection point
			calls.Add(1)
			panic("boom")
		}
		return inner(ctx, opt, v)
	}
	reg := obs.NewRegistry()
	s := testSweep(4, 3, 20, false, probe)
	s.opt.Metrics = reg
	s.improve(20, &model.Placement{X: []int{-1}}, struct{}{}, "heuristic")
	err := s.search(context.Background())
	if err == nil || !strings.Contains(err.Error(), "probe at 11 panicked: boom") ||
		!strings.Contains(err.Error(), "runtime/debug.Stack") {
		t.Fatalf("err = %v, want the panic with its stack", err)
	}
	if n := reg.Snapshot()[obs.MetricProbePanics]; n != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricProbePanics, n)
	}
	if s.Probes == 0 || int64(s.Probes) != calls.Load()-1 {
		t.Errorf("%d probes launched, %d merged; want every probe but the panicking one merged",
			calls.Load(), s.Probes)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the sweep, %d before", n, before)
	}
}

func TestBisectPoints(t *testing.T) {
	s := testSweep(3, 3, 20, false, fakeProbe(0, 0, new(atomic.Int64)))
	s.improve(20, &model.Placement{}, struct{}{}, "heuristic")
	running := map[int]bool{}
	busy := func(v int) bool { return running[v] }
	pts := s.picks(3, busy)
	if len(pts) != 3 || pts[0] != 11 {
		t.Fatalf("picks = %v, want midpoint 11 first and 3 points", pts)
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if p < 3 || p >= 20 || seen[p] {
			t.Fatalf("picks produced out-of-range or duplicate value %d in %v", p, pts)
		}
		seen[p] = true
	}
	// In-flight values are skipped.
	running[11] = true
	for _, p := range s.picks(3, busy) {
		if p == 11 {
			t.Fatalf("picks re-proposed in-flight value 11: %v", pts)
		}
	}
}

// searchOnly forces every decision through the branch-and-bound so the
// parallel paths race real engine work.
func searchOnly(workers int) Options {
	return Options{Workers: workers, SkipBounds: true, SkipHeuristic: true}
}

func TestMinBaseParallelParity(t *testing.T) {
	in := bench.DE()
	for _, T := range []int{6, 13, 14} {
		seq, err := MinBase(in, T, searchOnly(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := MinBase(in, T, searchOnly(8))
		if err != nil {
			t.Fatal(err)
		}
		if seq.Decision != par.Decision || seq.Value != par.Value {
			t.Fatalf("T=%d: sequential (%v, %d) vs parallel (%v, %d)",
				T, seq.Decision, seq.Value, par.Decision, par.Value)
		}
		if !placementsEqual(seq.Placement, par.Placement) {
			t.Fatalf("T=%d: witness placements differ", T)
		}
	}
}

func TestMinTimeParallelParity(t *testing.T) {
	in := bench.DE()
	seq, err := MinTime(in, 32, 32, searchOnly(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := MinTime(in, 32, 32, searchOnly(8))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Decision != par.Decision || seq.Value != par.Value {
		t.Fatalf("sequential (%v, %d) vs parallel (%v, %d)",
			seq.Decision, seq.Value, par.Decision, par.Value)
	}
	if !placementsEqual(seq.Placement, par.Placement) {
		t.Fatalf("witness placements differ")
	}
}

func TestParetoParallelParity(t *testing.T) {
	in := bench.DE()
	seq, err := ParetoFront(in, searchOnly(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParetoFront(in, searchOnly(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Points) != len(par.Points) {
		t.Fatalf("front sizes differ: %d vs %d", len(seq.Points), len(par.Points))
	}
	for i := range seq.Points {
		if seq.Points[i] != par.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, seq.Points[i], par.Points[i])
		}
	}
}

// TestStealingDriversParallelParity: the drivers that run their probes
// one at a time (MinArea, MinChips, MinTimeMultiChip and the rotation
// sweeps) steal work inside each probe at Workers > 1. Their answer
// must be the sequential one; stealing may pick another witness, so the
// witness must verify on the answer's container.
func TestStealingDriversParallelParity(t *testing.T) {
	de := bench.DE()
	r654 := bench.Random(rand.New(rand.NewSource(654)), 9, 4, 4, 0.15)
	verify := func(in *model.Instance, p *model.Placement, c model.Container, rot []bool) error {
		in = in.Clone()
		for i, r := range rot {
			if r {
				in.Tasks[i].W, in.Tasks[i].H = in.Tasks[i].H, in.Tasks[i].W
			}
		}
		order, err := in.Order()
		if err != nil {
			return err
		}
		return p.Verify(in, c, order)
	}
	verifyChips := func(in *model.Instance, chipW, chipH, T, k int, r *MultiChipResult) error {
		order, err := in.Order()
		if err != nil {
			return err
		}
		return verifyMultiChip(in, chipW, chipH, T, k, r.Placement, r.Chip, order)
	}
	cases := []struct {
		name string
		// run answers at the given worker count and checks the witness.
		run func(workers int) (string, error)
	}{
		{"MinArea/DE/T13", func(w int) (string, error) {
			r, err := MinArea(de, 13, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %dx%d area %d", r.Decision, r.W, r.H, r.Area),
				verify(de, r.Placement, model.Container{W: r.W, H: r.H, T: 13}, nil)
		}},
		{"MinArea/rand654/T6", func(w int) (string, error) {
			r, err := MinArea(r654, 6, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %dx%d area %d", r.Decision, r.W, r.H, r.Area),
				verify(r654, r.Placement, model.Container{W: r.W, H: r.H, T: 6}, nil)
		}},
		{"MinChips/DE/16x16/T6", func(w int) (string, error) {
			r, err := MinChips(de, 16, 16, 6, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %d chips", r.Decision, r.Chips), verifyChips(de, 16, 16, 6, r.Chips, r)
		}},
		{"MinChips/rand654/4x4/T6", func(w int) (string, error) {
			r, err := MinChips(r654, 4, 4, 6, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %d chips", r.Decision, r.Chips), verifyChips(r654, 4, 4, 6, r.Chips, r)
		}},
		{"MinTimeMultiChip/DE/16x16/k2", func(w int) (string, error) {
			r, err := MinTimeMultiChip(de, 16, 16, 2, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v T=%d", r.Decision, r.MinTime), verifyChips(de, 16, 16, r.MinTime, 2, r)
		}},
		{"MinTimeMultiChip/rand654/4x4/k2", func(w int) (string, error) {
			r, err := MinTimeMultiChip(r654, 4, 4, 2, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v T=%d", r.Decision, r.MinTime), verifyChips(r654, 4, 4, r.MinTime, 2, r)
		}},
		{"MinTimeWithRotation/DE/17x17", func(w int) (string, error) {
			r, rot, err := MinTimeWithRotation(de, 17, 17, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v T=%d", r.Decision, r.Value),
				verify(de, r.Placement, model.Container{W: 17, H: 17, T: r.Value}, rot)
		}},
		{"MinBaseWithRotation/DE/T13", func(w int) (string, error) {
			r, rot, err := MinBaseWithRotation(de, 13, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v h=%d", r.Decision, r.Value),
				verify(de, r.Placement, model.Container{W: r.Value, H: r.Value, T: 13}, rot)
		}},
		{"MinBaseWithRotation/rand654/T8", func(w int) (string, error) {
			r, rot, err := MinBaseWithRotation(r654, 8, searchOnly(w))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v h=%d", r.Decision, r.Value),
				verify(r654, r.Placement, model.Container{W: r.Value, H: r.Value, T: 8}, rot)
		}},
	}
	for _, c := range cases {
		seq, err := c.run(1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", c.name, err)
		}
		par, err := c.run(8)
		if err != nil {
			t.Fatalf("%s workers=8: %v", c.name, err)
		}
		if seq != par {
			t.Errorf("%s: sequential %s vs parallel %s", c.name, seq, par)
		}
	}
}

// TestAnytimeParallelStream: at Workers > 1 the anytime refinement
// steals inside each probe; its stream stays monotone (the gap never
// grows and the last update is the final proof) and it ends at the
// sequential optimum.
func TestAnytimeParallelStream(t *testing.T) {
	in := bench.Biquad(3)
	run := func(workers int) (*OptResult, []AnytimeUpdate) {
		var ups []AnytimeUpdate
		r, err := MinTime(in, 17, 17, Options{
			Workers:       workers,
			Anytime:       true,
			OnImprovement: func(u AnytimeUpdate) { ups = append(ups, u) },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r, ups
	}
	seq, _ := run(1)
	par, ups := run(2)
	if par.Decision != Feasible || par.Value != seq.Value {
		t.Fatalf("workers=2: (%v, %d), workers=1: (%v, %d)", par.Decision, par.Value, seq.Decision, seq.Value)
	}
	if len(ups) == 0 || !ups[len(ups)-1].Final || ups[len(ups)-1].Gap != 0 || ups[len(ups)-1].Best != seq.Value {
		t.Fatalf("stream %+v does not end in the final proof at %d", ups, seq.Value)
	}
	for i := 1; i < len(ups); i++ {
		if ups[i].Gap > ups[i-1].Gap || ups[i].Best > ups[i-1].Best || ups[i].LowerBound < ups[i-1].LowerBound {
			t.Fatalf("update %d (%+v) regresses from %+v", i, ups[i], ups[i-1])
		}
	}
}

func placementsEqual(a, b *model.Placement) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	eq := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.X, b.X) && eq(a.Y, b.Y) && eq(a.S, b.S)
}

// TestCancellationPromptness starts a search that would run for minutes
// (video codec with bounds and heuristic disabled) and checks that a
// short context deadline cuts it off within a generous margin, with the
// partial statistics preserved.
func TestCancellationPromptness(t *testing.T) {
	in := bench.VideoCodec()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	r, err := SolveOPPCtx(ctx, in, model.Container{W: 64, H: 64, T: 59},
		Options{SkipBounds: true, SkipHeuristic: true})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Unknown || r.DecidedBy != "canceled" {
		t.Fatalf("got (%v, %q), want (unknown, canceled)", r.Decision, r.DecidedBy)
	}
	if r.Stats.Nodes == 0 {
		t.Fatal("canceled search reported no partial effort")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestMinBaseCtxCanceledReturnsPartial checks the driver-level contract:
// a canceled optimization returns ctx.Err() together with the partial
// aggregate rather than swallowing it.
func TestMinBaseCtxCanceledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		res, err := MinBaseCtx(ctx, bench.DE(), 6, searchOnly(workers))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res == nil || res.Decision != Unknown {
			t.Fatalf("workers=%d: partial result = %+v", workers, res)
		}
	}
}

// TestCoreSolveCanceled checks the engine-level status for a context
// that dies before and during the search.
func TestCoreSolveCanceled(t *testing.T) {
	in := bench.DE()
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	prob := strategy.BuildProblem(in, model.Container{W: 32, H: 32, T: 6}, order, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := core.Solve(prob, Options{}.searchOptions(ctx))
	if r.Status != core.StatusCanceled {
		t.Fatalf("status = %v, want canceled", r.Status)
	}
}
