package solver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/geomsearch"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/strategy"
)

// fixedCase is one FixedS question: does instance in, with task v
// starting at starts[v], have a spatial placement on chip c?
type fixedCase struct {
	in     *model.Instance
	order  *model.Order
	starts []int
	c      model.Container
}

// fixedCases derives FixedS questions from one seeded random instance:
// the schedule of the greedy placer's witness on a roomy square chip
// (or, for every fourth seed, every task starting at 0 with the
// precedence arcs dropped), probed on every square chip from one below the
// slice-area bound up to the chip it came from. So the corpus holds
// chips below, at and above the minimum side.
func fixedCases(t testing.TB, seed int64, n, maxSize, maxDur int) []fixedCase {
	rng := rand.New(rand.NewSource(seed))
	in := bench.Random(rng, n, maxSize, maxDur, 0.2)
	allZero := seed%4 == 0
	if allZero {
		in.Prec = nil
	}
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	side := max(in.MaxW(), in.MaxH()) + rng.Intn(maxSize+1)
	pl, mk, ok := heur.MinMakespan(in, side, side, order)
	if !ok {
		t.Fatalf("seed %d: greedy placer failed on %dx%d", seed, side, side)
	}
	starts := pl.S
	if allZero {
		// Every task at once: the pure 2D packing the online session's
		// probes mostly ask.
		starts, mk = make([]int, n), 0
		for _, t := range in.Tasks {
			mk = max(mk, t.Dur)
		}
		side = max(side, bounds.MinBaseFixedLB(in, starts)+1)
	}
	var cases []fixedCase
	for h := max(1, bounds.MinBaseFixedLB(in, starts)-1); h <= side; h++ {
		cases = append(cases, fixedCase{in, order, starts, model.Container{W: h, H: h, T: mk}})
	}
	return cases
}

// fixedNodeLimit bounds each search of the FixedS corpus; a question
// either path leaves open is not compared.
const fixedNodeLimit = 200_000

// checkFixedCase decides q through the full pipeline and through the
// packing-class engine alone (and, for n ≤ 6, the geometric oracle) and
// fails on any disagreement. It returns the engine's decision, the
// stage that settled the pipeline's, and whether the bit-grid packer
// decided it ahead of the engine.
func checkFixedCase(t *testing.T, q fixedCase, label string) (Decision, string, bool) {
	t.Helper()
	reg := obs.NewRegistry()
	full, err := FeasibleFixedScheduleCtx(context.Background(), q.in, q.c, q.starts, Options{NodeLimit: fixedNodeLimit, Metrics: reg})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// A task larger than the chip is infeasible; the engine takes it
	// for a caller's error, so it is not asked.
	ref, refW := Infeasible, (*model.Placement)(nil)
	if q.c.Fits(q.in) {
		switch r := core.Solve(strategy.BuildProblem(q.in, q.c, q.order, q.starts), core.Options{NodeLimit: fixedNodeLimit}); r.Status {
		case core.StatusFeasible:
			ref, refW = Feasible, strategy.SolutionToPlacement(r.Solution)
			refW.S = q.starts
		case core.StatusNodeLimit:
			ref = Unknown
		}
	}
	for _, w := range []*model.Placement{full.Placement, refW} {
		if w == nil {
			continue
		}
		if !slices.Equal(w.S, q.starts) {
			t.Fatalf("%s: witness moved the starts %v to %v", label, q.starts, w.S)
		}
		if err := w.Verify(q.in, q.c, q.order); err != nil {
			t.Fatalf("%s: witness invalid: %v", label, err)
		}
	}
	if full.Decision != Unknown && ref != Unknown && full.Decision != ref {
		t.Fatalf("%s: pipeline %v (%s), engine alone %v", label, full.Decision, full.DecidedBy, ref)
	}
	if ref == Feasible {
		if bad, why := bounds.FixedScheduleInfeasible(q.in, q.c, q.starts); bad {
			t.Fatalf("%s: stage 1 (%s) refuted a feasible schedule", label, why)
		}
	}
	if q.in.N() <= 6 {
		g := geomsearch.SolveFixed(q.in, q.c, q.order, q.starts, geomsearch.Options{NodeLimit: 5_000_000})
		want := map[geomsearch.Status]Decision{geomsearch.Feasible: Feasible, geomsearch.Infeasible: Infeasible}[g.Status]
		if g.Status == geomsearch.Feasible {
			if err := g.Placement.Verify(q.in, q.c, q.order); err != nil || !slices.Equal(g.Placement.S, q.starts) {
				t.Fatalf("%s: geometric oracle witness invalid (%v) or moved starts", label, err)
			}
		}
		for _, d := range []Decision{full.Decision, ref} {
			if (g.Status == geomsearch.Feasible || g.Status == geomsearch.Infeasible) && d != Unknown && d != want {
				t.Fatalf("%s: pipeline (%s) or engine says %v, geometric oracle %v", label, full.DecidedBy, d, g.Status)
			}
		}
	}
	steps := reg.Counter(obs.MetricSearchPack2DSteps).Value()
	packed := full.DecidedBy == "search" && full.Stats.Nodes == 0 && steps > 0 && steps < 16*fixedNodeLimit
	return ref, strings.SplitN(full.DecidedBy, ":", 2)[0], packed
}

// TestFixedScheduleCorpus checks the FixedS stages on a seeded corpus:
// the pipeline's decisions equal the engine's alone and, for n ≤ 6, the
// geometric oracle's; stage 1 never refutes a feasible question; every
// witness keeps the prescribed starts and verifies; and the 2D packer
// decides some of the all-zero-start questions.
func TestFixedScheduleCorpus(t *testing.T) {
	var feasible, infeasible, open, packed int
	by := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		n := 3 + int(seed%7) // 3..9 tasks
		for _, q := range fixedCases(t, seed, n, 4, 4) {
			d, stage, p := checkFixedCase(t, q, fmt.Sprintf("seed %d chip %v", seed, q.c))
			by[stage]++
			if p {
				packed++
			}
			switch d {
			case Feasible:
				feasible++
			case Infeasible:
				infeasible++
			default:
				open++
			}
		}
	}
	t.Logf("%d feasible, %d infeasible, %d open questions; settled by %v, %d of them by the 2D packer", feasible, infeasible, open, by, packed)
	if feasible < 300 || infeasible < 200 || open > 5 || by["bound"] < 100 || by["heuristic"] < 100 || by["search"] < 20 || packed < 5 {
		t.Fatalf("corpus too weak: %d feasible, %d infeasible, %d open; settled by %v, %d by the 2D packer", feasible, infeasible, open, by, packed)
	}
}

// FuzzFixedSchedule checks the properties of TestFixedScheduleCorpus
// on fuzzed generator settings.
func FuzzFixedSchedule(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(4), uint8(4))
	f.Add(int64(7), uint8(9), uint8(3), uint8(6))
	f.Add(int64(42), uint8(6), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, maxSize, maxDur uint8) {
		nn, ms, md := 1+int(n%9), 1+int(maxSize%5), 1+int(maxDur%6)
		for _, q := range fixedCases(t, seed, nn, ms, md) {
			checkFixedCase(t, q, "chip "+q.c.String())
		}
	})
}
