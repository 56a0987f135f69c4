package solver

import (
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// TestMinTimeHeuristicMemoOnDE is the regression test for the sweep
// incumbent bugfix: a MinTime run on the DE instance must compute the
// greedy minimum-makespan placement exactly once per chip footprint
// and serve every later probe's stage 2 from the memo. The historical
// pipeline restarted stage 2 on every probe, so computes grew with the
// probe count.
func TestMinTimeHeuristicMemoOnDE(t *testing.T) {
	de := bench.DE()
	reg := obs.NewRegistry()
	r, err := MinTime(de, 33, 16, Options{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible {
		t.Fatalf("decision %v", r.Decision)
	}
	computes := reg.Counter(obs.MetricStrategyHeurComputes).Value()
	hits := reg.Counter(obs.MetricStrategyHeurHits).Value()
	if computes != 1 {
		t.Errorf("heuristic computed %d times on one 33x16 footprint, want 1", computes)
	}
	if hits < 1 {
		t.Errorf("heuristic memo hits = %d, want ≥ 1 (every probe shares the sweep's stage-2 run)", hits)
	}
	// Total stage-2 invocations = computes: strictly fewer than the
	// 1 + probes the historical per-probe pipeline performed.
	if legacy := int64(1 + r.Probes); computes >= legacy {
		t.Errorf("stage-2 invocations %d not reduced versus legacy %d", computes, legacy)
	}
	t.Logf("DE 33x16: probes=%d heur computes=%d hits=%d", r.Probes, computes, hits)
}

// TestParetoHeuristicMemoAcrossSteps checks cross-step incumbent
// reuse: the Pareto walk's BMP ascents probe the same square chips at
// successive time budgets, so the per-footprint memo must be shared
// across the whole run, not rebuilt per step.
func TestParetoHeuristicMemoAcrossSteps(t *testing.T) {
	// The minimal square side is 4 for T in [3, 6] and 3 at T = 7. Each
	// step from T = 5 on probes the 3×3 chip just below the carried
	// incumbent, and stage 1 refutes none of those probes, so stage 2
	// runs on the same footprint at three successive budgets.
	in := &model.Instance{
		Name: "pareto-memo",
		Tasks: []model.Task{
			{W: 3, H: 1, Dur: 3}, {W: 3, H: 2, Dur: 1}, {W: 2, H: 3, Dur: 2},
			{W: 1, H: 3, Dur: 2}, {W: 1, H: 3, Dur: 2},
		},
	}
	reg := obs.NewRegistry()
	r, err := ParetoFront(in, Options{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("empty frontier")
	}
	computes := reg.Counter(obs.MetricStrategyHeurComputes).Value()
	hits := reg.Counter(obs.MetricStrategyHeurHits).Value()
	// Distinct square footprints probed across the whole walk are few;
	// every repeat visit (same h at a later T) must come from the memo.
	if hits < 1 {
		t.Errorf("pareto walk recorded %d memo hits, want ≥ 1 (computes=%d)", hits, computes)
	}
	t.Logf("pareto: probes=%d computes=%d hits=%d curve=%v", r.Probes, computes, hits, r.Curve)
}
