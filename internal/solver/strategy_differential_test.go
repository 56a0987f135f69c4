package solver

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/strategy"
)

// legacyOPP reimplements the pre-strategy-layer OPP pipeline verbatim —
// bounds, then greedy heuristic, then the exact engine — as the
// reference for the differential tests below. When stage 2 runs and the
// greedy minimum-makespan schedule fits the chip, its start times order
// the engine's time-axis branches (core.Dim.Hint), and a search that
// spends at least one annealing walk's proposals before its node limit
// falls back to that walk, as in the staged pipeline. Any behavioral
// drift in
// the default (staged) strategy shows up as a mismatch against this
// replica: Decision, DecidedBy, witness placement and full engine
// Stats must all coincide bit for bit.
func legacyOPP(ctx context.Context, in *model.Instance, c model.Container, order *model.Order, opt Options) *OPPResult {
	res := &OPPResult{}
	if ctx.Err() != nil {
		res.Decision = Unknown
		res.DecidedBy = "canceled"
		return res
	}
	if !opt.SkipBounds {
		if bad, why := bounds.OPPInfeasible(in, c, order); bad {
			res.Decision = Infeasible
			res.DecidedBy = "bound: " + why
			return res
		}
	}
	prob := strategy.BuildProblem(in, c, order, nil)
	greedyFits := false
	if !opt.SkipHeuristic {
		if pl, mk, ok := heur.MinMakespan(in, c.W, c.H, order); ok {
			if mk <= c.T {
				res.Decision = Feasible
				res.Placement = pl
				res.DecidedBy = "heuristic"
				return res
			}
			prob.Dims[2].Hint = pl.S
			greedyFits = true
		}
	}
	r := core.Solve(prob, opt.coreOptions(ctx))
	res.Stats = r.Stats
	if r.Status == core.StatusNodeLimit && greedyFits && r.Stats.Nodes >= heur.DefaultAnnealProposals {
		pl, mk, ok := heur.AnnealMinMakespan(ctx, in, c.W, c.H, order, heur.AnnealOptions{Seed: opt.AnnealSeed})
		if ok && mk <= c.T {
			res.Decision = Feasible
			res.Placement = pl
			res.DecidedBy = "anneal"
			return res
		}
	}
	switch r.Status {
	case core.StatusFeasible:
		res.Decision = Feasible
		res.Placement = &model.Placement{
			X: append([]int(nil), r.Solution.Coords[0]...),
			Y: append([]int(nil), r.Solution.Coords[1]...),
			S: append([]int(nil), r.Solution.Coords[2]...),
		}
		res.DecidedBy = "search"
	case core.StatusInfeasible:
		res.Decision = Infeasible
		res.DecidedBy = "search"
	case core.StatusCanceled:
		res.Decision = Unknown
		res.DecidedBy = "canceled"
	default:
		res.Decision = Unknown
		res.DecidedBy = "limit"
	}
	return res
}

// diffContainers yields the probing containers for one random
// instance: the heuristic's exact footprint (heuristic-decided), one
// cycle tighter (search or bounds), a spatial squeeze, and a generous
// box — together they exercise every DecidedBy path.
func diffContainers(in *model.Instance, order *model.Order) []model.Container {
	maxW, maxH := in.MaxW(), in.MaxH()
	cs := []model.Container{
		{W: maxW + 1, H: maxH + 1, T: in.TotalDuration() + 1}, // roomy
		{W: maxW, H: maxH, T: order.CriticalPath()},           // tight all around
	}
	if _, mk, ok := heur.MinMakespan(in, maxW+1, maxH, order); ok {
		cs = append(cs,
			model.Container{W: maxW + 1, H: maxH, T: mk},     // heuristic exact
			model.Container{W: maxW + 1, H: maxH, T: mk - 1}, // one tighter
		)
	}
	return cs
}

// TestDifferentialStagedMatchesLegacy drives the default strategy and
// the legacy pipeline replica over ≥100 random instances × several
// containers each and requires bit-identical results, including the
// engine's full Stats struct.
func TestDifferentialStagedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	instances := 0
	for instances < 120 {
		in := bench.Random(rng, 2+rng.Intn(5), 3, 3, 0.35)
		order, err := in.Order()
		if err != nil {
			continue
		}
		instances++
		for _, c := range diffContainers(in, order) {
			if c.T < 1 || c.W < 1 || c.H < 1 {
				continue
			}
			want := legacyOPP(context.Background(), in, c, order, Options{})
			got, err := SolveOPP(in, c, Options{})
			if err != nil {
				t.Fatalf("instance %d %+v: %v", instances, c, err)
			}
			if got.Decision != want.Decision || got.DecidedBy != want.DecidedBy {
				t.Fatalf("instance %d %+v: got %v by %q, legacy %v by %q",
					instances, c, got.Decision, got.DecidedBy, want.Decision, want.DecidedBy)
			}
			if !reflect.DeepEqual(got.Placement, want.Placement) {
				t.Fatalf("instance %d %+v: witness diverged\n got  %+v\n want %+v",
					instances, c, got.Placement, want.Placement)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("instance %d %+v: stats diverged\n got  %+v\n want %+v",
					instances, c, got.Stats, want.Stats)
			}
		}
	}
}

// TestDifferentialStagedMatchesLegacyAblations repeats the comparison
// under the stage ablations, which route every decision through the
// remaining stages.
func TestDifferentialStagedMatchesLegacyAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	opts := []Options{
		{SkipHeuristic: true},
		{SkipBounds: true},
		{TimeDisjointFirst: true},
	}
	for i := 0; i < 40; i++ {
		in := bench.Random(rng, 2+rng.Intn(4), 3, 3, 0.3)
		order, err := in.Order()
		if err != nil {
			continue
		}
		for _, opt := range opts {
			for _, c := range diffContainers(in, order) {
				if c.T < 1 {
					continue
				}
				// With bounds ablated nothing screens a task that exceeds
				// the container, and the engine treats such input as a
				// programmer error — in the legacy pipeline exactly as in
				// the staged strategy. Keep the differential domain to
				// well-formed probes.
				misfit := false
				for _, task := range in.Tasks {
					if task.W > c.W || task.H > c.H || task.Dur > c.T {
						misfit = true
						break
					}
				}
				if misfit {
					continue
				}
				want := legacyOPP(context.Background(), in, c, order, opt)
				got, err := SolveOPP(in, c, opt)
				if err != nil {
					t.Fatalf("iter %d opt %+v: %v", i, opt, err)
				}
				if got.Decision != want.Decision || got.DecidedBy != want.DecidedBy ||
					!reflect.DeepEqual(got.Placement, want.Placement) ||
					!reflect.DeepEqual(got.Stats, want.Stats) {
					t.Fatalf("iter %d opt %+v container %+v: staged diverged from legacy", i, opt, c)
				}
			}
		}
	}
}

// TestDifferentialStagedMatchesLegacyNodeLimited repeats the comparison
// on search-frontier draws (bench.Random(14, 4, 4, 0.15) from seed 1 on
// a 6×6 chip) under a 2 000-node budget, at every time budget between
// the lower bound and the greedy makespan, so the engine stops at its
// node limit and the annealing fallback decides some probes and misses
// others.
func TestDifferentialStagedMatchesLegacyNodeLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	by := map[string]int{}
	for draw := 0; draw <= 148; draw++ {
		in := bench.Random(rng, 14, 4, 4, 0.15)
		if draw%8 != 4 && draw != 148 {
			continue
		}
		order, err := in.Order()
		if err != nil {
			t.Fatal(err)
		}
		_, mk, ok := heur.MinMakespan(in, 6, 6, order)
		if !ok {
			continue
		}
		for T := bounds.MinTimeLB(in, 6, 6, order); T < mk; T++ {
			c := model.Container{W: 6, H: 6, T: T}
			opt := Options{NodeLimit: 2_000, AnnealSeed: int64(draw)}
			want := legacyOPP(context.Background(), in, c, order, opt)
			got, err := SolveOPP(in, c, opt)
			if err != nil {
				t.Fatalf("draw %d T=%d: %v", draw, T, err)
			}
			if got.Decision != want.Decision || got.DecidedBy != want.DecidedBy ||
				!reflect.DeepEqual(got.Placement, want.Placement) ||
				!reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("draw %d T=%d: staged %v by %q, legacy %v by %q", draw, T,
					got.Decision, got.DecidedBy, want.Decision, want.DecidedBy)
			}
			by[got.DecidedBy]++
		}
	}
	t.Logf("decided by: %v", by)
	if by["anneal"] == 0 || by["limit"] == 0 {
		t.Fatalf("decided by %v: want both annealed and node-limited probes", by)
	}
}

// legacyMinTime replicates the pre-strategy-layer sequential MinTime
// sweep: per-probe heuristic recomputation (no memo), no incumbent
// probing, plain bisection.
func legacyMinTime(in *model.Instance, W, H int, order *model.Order, opt Options) (value int, place *model.Placement, probes int, stats core.Stats) {
	lb := bounds.MinTimeLB(in, W, H, order)
	ubPlace, ub, _ := heur.MinMakespan(in, W, H, order)
	best, bestPlace := ub, ubPlace
	lo, hi := lb, ub
	for lo < hi {
		mid := (lo + hi) / 2
		r := legacyOPP(context.Background(), in, model.Container{W: W, H: H, T: mid}, order, opt)
		probes++
		stats.Add(r.Stats)
		switch r.Decision {
		case Feasible:
			hi = mid
			best, bestPlace = mid, r.Placement
		case Infeasible:
			lo = mid + 1
		default:
			return best, bestPlace, probes, stats
		}
	}
	return best, bestPlace, probes, stats
}

// TestDifferentialMinTimeStagedMatchesLegacy checks that the staged
// sweep — now running through the strategy layer with the memoized
// stage 2 — reproduces the legacy sweep's value, witness, probe count
// and engine statistics exactly.
func TestDifferentialMinTimeStagedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	checked := 0
	for checked < 100 {
		in := bench.Random(rng, 2+rng.Intn(4), 3, 3, 0.3)
		order, err := in.Order()
		if err != nil {
			continue
		}
		checked++
		W, H := in.MaxW()+rng.Intn(2), in.MaxH()+rng.Intn(2)
		wantV, wantP, wantProbes, wantStats := legacyMinTime(in, W, H, order, Options{})
		got, err := MinTime(in, W, H, Options{Workers: 1})
		if err != nil {
			t.Fatalf("instance %d: %v", checked, err)
		}
		if got.Decision != Feasible || got.Value != wantV {
			t.Fatalf("instance %d %dx%d: value %d (%v), legacy %d", checked, W, H, got.Value, got.Decision, wantV)
		}
		if !reflect.DeepEqual(got.Placement, wantP) {
			t.Fatalf("instance %d %dx%d: witness diverged", checked, W, H)
		}
		if got.Probes != wantProbes {
			t.Fatalf("instance %d %dx%d: probes %d, legacy %d", checked, W, H, got.Probes, wantProbes)
		}
		if !reflect.DeepEqual(got.Stats, wantStats) {
			t.Fatalf("instance %d %dx%d: stats diverged\n got  %+v\n want %+v", checked, W, H, got.Stats, wantStats)
		}
	}
}

// TestStrategyUnknownRejected checks that every optimization entry
// point rejects an unknown strategy name up front.
func TestStrategyUnknownRejected(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 1, H: 1, Dur: 1}}}
	bad := Options{Strategy: "greedy"}
	if _, err := SolveOPP(in, model.Container{W: 1, H: 1, T: 1}, bad); err == nil {
		t.Error("SolveOPP accepted an unknown strategy")
	}
	if _, err := MinTime(in, 1, 1, bad); err == nil {
		t.Error("MinTime accepted an unknown strategy")
	}
	if _, err := MinBase(in, 1, bad); err == nil {
		t.Error("MinBase accepted an unknown strategy")
	}
	if _, err := MinArea(in, 1, bad); err == nil {
		t.Error("MinArea accepted an unknown strategy")
	}
	if _, err := ParetoFront(in, bad); err == nil {
		t.Error("ParetoFront accepted an unknown strategy")
	}
	if _, err := SolveMultiChipCtx(context.Background(), in, 1, 1, 1, 1, bad); err == nil {
		t.Error("SolveMultiChip accepted an unknown strategy")
	}
	if _, err := MinChips(in, 1, 1, 1, bad); err == nil {
		t.Error("MinChips accepted an unknown strategy")
	}
	if _, _, err := MinTimeWithRotation(in, 1, 1, bad); err == nil {
		t.Error("MinTimeWithRotation accepted an unknown strategy")
	}
	if _, err := MinTimeMultiChip(in, 1, 1, 1, bad); err == nil {
		t.Error("MinTimeMultiChip accepted an unknown strategy")
	}
	if _, err := FeasibleFixedScheduleCtx(context.Background(), in, model.Container{W: 1, H: 1, T: 1}, []int{0}, bad); err == nil {
		t.Error("FeasibleFixedSchedule accepted an unknown strategy")
	}
}

// TestPortfolioMatchesStagedAnswers checks answer (not stats)
// equivalence of the portfolio strategy across random instances: same
// decisions and same optimal values, with valid witnesses.
func TestPortfolioMatchesStagedAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for i := 0; i < 60; i++ {
		in := bench.Random(rng, 2+rng.Intn(4), 3, 3, 0.3)
		order, err := in.Order()
		if err != nil {
			continue
		}
		W, H := in.MaxW()+rng.Intn(2), in.MaxH()+rng.Intn(2)
		st, err := MinTime(in, W, H, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pf, err := MinTime(in, W, H, Options{Workers: 1, Strategy: "portfolio"})
		if err != nil {
			t.Fatal(err)
		}
		if st.Decision != pf.Decision || st.Value != pf.Value {
			t.Fatalf("iter %d %dx%d: staged %v/%d, portfolio %v/%d",
				i, W, H, st.Decision, st.Value, pf.Decision, pf.Value)
		}
		if pf.Placement != nil {
			c := model.Container{W: W, H: H, T: pf.Value}
			if err := pf.Placement.Verify(in, c, order); err != nil {
				t.Fatalf("iter %d: portfolio witness invalid: %v", i, err)
			}
		}
	}
}
