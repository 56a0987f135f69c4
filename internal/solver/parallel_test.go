package solver

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// fakeProbe builds a probeFunc over a synthetic monotone predicate:
// values >= threshold are feasible, smaller ones infeasible. Each call
// burns a little wall time so cancellation actually races, and honors
// ctx like the real solveOPP (returning a "canceled" result, nil error).
func fakeProbe(threshold int, delay time.Duration, calls *atomic.Int64) probeFunc {
	return func(ctx context.Context, v int) (*OPPResult, error) {
		calls.Add(1)
		select {
		case <-ctx.Done():
			return &OPPResult{Decision: Unknown, DecidedBy: "canceled"}, nil
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
		return r, nil
	}
}

func TestRaceAscendingFindsThreshold(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, threshold := range []int{3, 7, 15, 20} {
			var calls atomic.Int64
			probe := fakeProbe(threshold, time.Millisecond, &calls)
			merged := 0
			d, v, res, err := raceAscending(context.Background(), workers, 3, 20, probe,
				func(int, *OPPResult) { merged++ }, nil)
			if err != nil {
				t.Fatalf("workers=%d threshold=%d: %v", workers, threshold, err)
			}
			if d != Feasible || v != threshold {
				t.Fatalf("workers=%d threshold=%d: got %v at %d", workers, threshold, d, v)
			}
			if res == nil || res.Placement.X[0] != threshold {
				t.Fatalf("workers=%d threshold=%d: witness from wrong probe: %+v", workers, threshold, res)
			}
			if int64(merged) != calls.Load() {
				t.Fatalf("workers=%d threshold=%d: %d probes launched but %d merged",
					workers, threshold, calls.Load(), merged)
			}
		}
	}
}

func TestRaceAscendingInfeasibleRange(t *testing.T) {
	var calls atomic.Int64
	probe := fakeProbe(100, time.Millisecond, &calls)
	d, _, _, err := raceAscending(context.Background(), 4, 3, 20, probe, func(int, *OPPResult) {}, nil)
	if err != nil || d != Infeasible {
		t.Fatalf("got %v, %v; want infeasible", d, err)
	}
}

func TestRaceAscendingParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	probe := fakeProbe(100, time.Millisecond, &calls)
	_, _, _, err := raceAscending(ctx, 4, 3, 20, probe, func(int, *OPPResult) {}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRaceBinaryFindsThreshold(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, threshold := range []int{3, 7, 19, 20} {
			var calls atomic.Int64
			probe := fakeProbe(threshold, time.Millisecond, &calls)
			merged := 0
			d, v, res, err := raceBinary(context.Background(), workers, 3, 20, probe,
				func(int, *OPPResult) { merged++ }, nil)
			if err != nil {
				t.Fatalf("workers=%d threshold=%d: %v", workers, threshold, err)
			}
			if d != Feasible || v != threshold {
				t.Fatalf("workers=%d threshold=%d: got %v at %d", workers, threshold, d, v)
			}
			// The witness is nil exactly when hi itself is optimal (the
			// caller's pre-existing upper-bound witness stands).
			if threshold < 20 && (res == nil || res.Placement.X[0] != threshold) {
				t.Fatalf("workers=%d threshold=%d: witness from wrong probe: %+v", workers, threshold, res)
			}
			if int64(merged) != calls.Load() {
				t.Fatalf("workers=%d threshold=%d: %d probes launched but %d merged",
					workers, threshold, calls.Load(), merged)
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
	probe := func(ctx context.Context, v int) (*OPPResult, error) {
		if v == 11 { // the first bisection point
			calls.Add(1)
			panic("boom")
		}
		return inner(ctx, v)
	}
	reg := obs.NewRegistry()
	merged := 0
	_, _, _, err := raceBinary(context.Background(), 4, 3, 20, probe,
		func(int, *OPPResult) { merged++ }, reg)
	if err == nil || !strings.Contains(err.Error(), "probe at 11 panicked: boom") ||
		!strings.Contains(err.Error(), "runtime/debug.Stack") {
		t.Fatalf("err = %v, want the panic with its stack", err)
	}
	if n := reg.Snapshot()[obs.MetricProbePanics]; n != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricProbePanics, n)
	}
	if merged == 0 || int64(merged) != calls.Load()-1 {
		t.Errorf("%d probes launched, %d merged; want every probe but the panicking one merged",
			calls.Load(), merged)
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
	running := map[int]context.CancelFunc{}
	pts := bisectPoints(3, 20, running, 3)
	if len(pts) != 3 || pts[0] != 11 {
		t.Fatalf("bisectPoints = %v, want midpoint 11 first and 3 points", pts)
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if p < 3 || p >= 20 || seen[p] {
			t.Fatalf("bisectPoints produced out-of-range or duplicate value %d in %v", p, pts)
		}
		seen[p] = true
	}
	// In-flight values are skipped.
	running[11] = func() {}
	for _, p := range bisectPoints(3, 20, running, 3) {
		if p == 11 {
			t.Fatalf("bisectPoints re-proposed in-flight value 11: %v", pts)
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
	prob := buildProblem(in, model.Container{W: 32, H: 32, T: 6}, order, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := core.Solve(prob, Options{}.searchOptions(ctx))
	if r.Status != core.StatusCanceled {
		t.Fatalf("status = %v, want canceled", r.Status)
	}
}
