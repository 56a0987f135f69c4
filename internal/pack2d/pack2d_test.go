package pack2d_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fpga3d/internal/core"
	"fpga3d/internal/geomsearch"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/pack2d"
	"fpga3d/internal/solver"
	"fpga3d/internal/strategy"
)

// nearPerfect cuts a W×H chip into n rectangles by random guillotine
// cuts, a perfect packing, then mutates up to three of them: shrink a
// side, grow a side or turn the box. The result has area slack 0–5 or
// is nil. Shrinks keep it feasible; grows and turns may not.
func nearPerfect(rng *rand.Rand, W, H, n int) (ws, hs []int) {
	ws, hs = []int{W}, []int{H}
	for tries := 0; len(ws) < n && tries < 8*n; tries++ {
		i := rng.Intn(len(ws))
		if rng.Intn(2) == 0 && ws[i] > 1 {
			cut := 1 + rng.Intn(ws[i]-1)
			ws, hs = append(ws, ws[i]-cut), append(hs, hs[i])
			ws[i] = cut
		} else if hs[i] > 1 {
			cut := 1 + rng.Intn(hs[i]-1)
			ws, hs = append(ws, ws[i]), append(hs, hs[i]-cut)
			hs[i] = cut
		}
	}
	for m := rng.Intn(4); m > 0; m-- {
		i := rng.Intn(len(ws))
		switch rng.Intn(5) {
		case 0:
			ws[i] = max(1, ws[i]-1)
		case 1:
			hs[i] = max(1, hs[i]-1)
		case 2:
			ws[i] = min(W, ws[i]+1)
		case 3:
			hs[i] = min(H, hs[i]+1)
		default:
			if ws[i] <= H && hs[i] <= W {
				ws[i], hs[i] = hs[i], ws[i]
			}
		}
	}
	area := 0
	for i := range ws {
		area += ws[i] * hs[i]
	}
	if slack := W*H - area; slack < 0 || slack > 5 {
		return nil, nil
	}
	return ws, hs
}

// probe is the fixed-schedule question "do the boxes pack on W×H" with
// every task running in cycle 0.
func probe(W, H int, ws, hs []int) (*model.Instance, model.Container, *model.Order, []int) {
	in := &model.Instance{Name: "pack2d"}
	for i := range ws {
		in.Tasks = append(in.Tasks, model.Task{Name: fmt.Sprint(i), W: ws[i], H: hs[i], Dur: 1})
	}
	order, err := in.Order()
	if err != nil {
		panic(err)
	}
	return in, model.Container{W: W, H: H, T: 1}, order, make([]int, len(ws))
}

// checkPack runs the packer on one question and compares it with the
// geometric oracle (n ≤ 6 on at most 100 cells, where it is quick) or
// the packing-class engine, where both decide. It returns the packer's
// result.
func checkPack(t *testing.T, label string, W, H int, ws, hs []int, limit int64) pack2d.Result {
	t.Helper()
	in, c, order, starts := probe(W, H, ws, hs)
	r := pack2d.Pack(context.Background(), W, H, ws, hs, limit)
	if r.Status == pack2d.Feasible {
		if err := (&model.Placement{X: r.X, Y: r.Y, S: starts}).Verify(in, c, order); err != nil {
			t.Fatalf("%s: packer witness invalid: %v", label, err)
		}
	}
	var want pack2d.Status = -1
	if in.N() <= 6 && W*H <= 100 {
		switch g := geomsearch.SolveFixed(in, c, order, starts, geomsearch.Options{NodeLimit: 5_000_000}); g.Status {
		case geomsearch.Feasible:
			want = pack2d.Feasible
		case geomsearch.Infeasible:
			want = pack2d.Infeasible
		}
	} else {
		switch e := core.Solve(strategy.BuildProblem(in, c, order, starts), core.Options{NodeLimit: 20_000}); e.Status {
		case core.StatusFeasible:
			want = pack2d.Feasible
		case core.StatusInfeasible:
			want = pack2d.Infeasible
		}
	}
	if want >= 0 && (r.Status == pack2d.Feasible || r.Status == pack2d.Infeasible) && r.Status != want {
		t.Fatalf("%s: packer says %v, reference %v", label, r.Status, want)
	}
	return r
}

// TestPackAgainstReferences checks the packer against the geometric
// oracle on every multiset of two to six boxes that leaves at most
// three cells of a chip up to 4×4 empty, then on seeded near-perfect
// packings of chips 3–9 wide against the oracle for n ≤ 6 and the
// packing-class engine above.
func TestPackAgainstReferences(t *testing.T) {
	by := map[pack2d.Status]int{}
	for W := 2; W <= 4; W++ {
		for H := 2; H <= 4; H++ {
			var each func(from, area int, ws, hs []int)
			each = func(from, area int, ws, hs []int) {
				if len(ws) >= 2 && area >= W*H-3 {
					by[checkPack(t, fmt.Sprintf("%dx%d %v×%v", W, H, ws, hs), W, H, ws, hs, 0).Status]++
				}
				for k := from; len(ws) < 6 && k < W*H; k++ {
					w, h := 1+k%W, 1+k/W
					if area+w*h <= W*H {
						each(k, area+w*h, append(ws[:len(ws):len(ws)], w), append(hs[:len(hs):len(hs)], h))
					}
				}
			}
			each(0, 0, nil, nil)
		}
	}
	t.Logf("every small multiset: %v", by)
	if by[pack2d.Feasible] < 1000 || by[pack2d.Infeasible] < 1000 {
		t.Fatalf("enumeration too small: %v", by)
	}
	by = map[pack2d.Status]int{}
	small := 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		W, H := 3+rng.Intn(7), 3+rng.Intn(7)
		n := 3 + rng.Intn(8)
		ws, hs := nearPerfect(rng, W, H, n)
		if ws == nil {
			continue
		}
		if len(ws) <= 6 && W*H <= 100 {
			small++
		}
		r := checkPack(t, fmt.Sprintf("seed %d %dx%d %v×%v", seed, W, H, ws, hs), W, H, ws, hs, 2_000_000)
		by[r.Status]++
	}
	t.Logf("%d questions (%d against the oracle): %v", by[pack2d.Feasible]+by[pack2d.Infeasible]+by[pack2d.StepLimit], small, by)
	if by[pack2d.Feasible] < 100 || by[pack2d.Infeasible] < 20 || small < 50 {
		t.Fatalf("corpus too weak: %v, %d against the oracle", by, small)
	}
}

// TestPackFullWidthRow checks the W = 64 row mask, where a full row is
// all 64 bits and no padding is left.
func TestPackFullWidthRow(t *testing.T) {
	for _, q := range []struct {
		W, H   int
		ws, hs []int
		want   pack2d.Status
	}{
		{64, 1, []int{64}, []int{1}, pack2d.Feasible},
		{64, 2, []int{33, 33, 31}, []int{1, 1, 2}, pack2d.Feasible},
		{64, 2, []int{40, 40, 40}, []int{1, 1, 1}, pack2d.Infeasible},
		{64, 3, []int{63, 1, 32, 32, 64}, []int{1, 1, 1, 1, 1}, pack2d.Feasible},
		{64, 3, []int{63, 2, 64, 64}, []int{1, 1, 1, 1}, pack2d.Infeasible},
		{63, 2, []int{63, 32, 31}, []int{1, 1, 1}, pack2d.Feasible},
	} {
		label := fmt.Sprintf("%dx%d %v×%v", q.W, q.H, q.ws, q.hs)
		if r := checkPack(t, label, q.W, q.H, q.ws, q.hs, 0); r.Status != q.want {
			t.Fatalf("%s: packer says %v, want %v", label, r.Status, q.want)
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		W, H := 63+rng.Intn(2), 1+rng.Intn(4)
		if ws, hs := nearPerfect(rng, W, H, 3+rng.Intn(6)); ws != nil {
			checkPack(t, fmt.Sprintf("seed %d %dx%d %v×%v", seed, W, H, ws, hs), W, H, ws, hs, 2_000_000)
		}
	}
}

// TestPackStepLimitThenEngine checks the pipeline path where the packer
// runs out of steps: the engine then decides with the probe's full node
// budget, and the answer matches the packer's own unlimited answer.
func TestPackStepLimitThenEngine(t *testing.T) {
	const nodeLimit = 100
	handed := 0
	for seed := int64(1); seed <= 400 && handed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		W := 7 + rng.Intn(3)
		ws, hs := nearPerfect(rng, W, W, 8+rng.Intn(5))
		if ws == nil {
			continue
		}
		full := pack2d.Pack(context.Background(), W, W, ws, hs, 0)
		if full.Steps <= 16*nodeLimit {
			continue
		}
		in, c, _, starts := probe(W, W, ws, hs)
		reg := obs.NewRegistry()
		res, err := solver.FeasibleFixedScheduleCtx(context.Background(), in, c, starts, solver.Options{NodeLimit: nodeLimit, SkipBounds: true, SkipHeuristic: true, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if steps := reg.Counter(obs.MetricSearchPack2DSteps).Value(); steps != 16*nodeLimit {
			t.Fatalf("seed %d: packer took %d steps, want its whole budget %d", seed, steps, 16*nodeLimit)
		}
		if res.Decision == strategy.Unknown {
			continue
		}
		if res.DecidedBy != "search" {
			t.Fatalf("seed %d: decided by %q after the packer ran out", seed, res.DecidedBy)
		}
		if (res.Decision == strategy.Feasible) != (full.Status == pack2d.Feasible) {
			t.Fatalf("seed %d: engine %v, unlimited packer %v", seed, res.Decision, full.Status)
		}
		handed++
	}
	if handed < 3 {
		t.Fatalf("only %d questions went from an exhausted packer to a deciding engine", handed)
	}
}

// TestPackOnlyPure2D checks which fixed-schedule probes the pipeline
// hands to the packer: those whose tasks share a cycle on a chip of at
// most 64×64. The engine decides the rest alone.
func TestPackOnlyPure2D(t *testing.T) {
	for _, q := range []struct {
		name      string
		W, H      int
		starts    []int
		wantSteps bool
	}{
		{"common cycle", 8, 8, []int{0, 0, 0}, true},
		{"common cycle, 64 wide", 64, 8, []int{0, 0, 0}, true},
		{"65 wide", 65, 8, []int{0, 0, 0}, false},
		{"65 tall", 8, 65, []int{0, 0, 0}, false},
		{"no common cycle", 8, 8, []int{0, 0, 1}, false},
	} {
		in, c, _, _ := probe(q.W, q.H, []int{4, 4, 8}, []int{7, 7, 1})
		c.T = 2
		reg := obs.NewRegistry()
		res, err := solver.FeasibleFixedScheduleCtx(context.Background(), in, c, q.starts, solver.Options{SkipBounds: true, SkipHeuristic: true, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision != strategy.Feasible || res.DecidedBy != "search" {
			t.Fatalf("%s: %v by %q", q.name, res.Decision, res.DecidedBy)
		}
		if steps := reg.Counter(obs.MetricSearchPack2DSteps).Value(); (steps > 0) != q.wantSteps {
			t.Fatalf("%s: packer took %d steps", q.name, steps)
		}
	}
}

// TestPackCanceled checks that a done context stops the packer before
// its first step.
func TestPackCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r := pack2d.Pack(ctx, 5, 5, []int{2, 3}, []int{5, 5}, 0); r.Status != pack2d.Canceled || r.Steps != 0 {
		t.Fatalf("canceled packer says %v after %d steps", r.Status, r.Steps)
	}
}

// FuzzPack2D checks the packer on fuzzed near-perfect packings: on
// chips up to 6×6 against the geometric oracle, on 60–64-wide ones
// against the engine.
func FuzzPack2D(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(5))
	f.Add(int64(7), uint8(6), uint8(3), uint8(6))
	f.Add(int64(42), uint8(64), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, w, h, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		W, H := 1+int(w%6), 1+int(h%6)
		if w >= 64 {
			W = 60 + int(w%5)
			H = 1 + int(h%2)
		}
		ws, hs := nearPerfect(rng, W, H, 1+int(n%6))
		if ws == nil {
			return
		}
		checkPack(t, fmt.Sprintf("%dx%d %v×%v", W, H, ws, hs), W, H, ws, hs, 5_000_000)
	})
}
