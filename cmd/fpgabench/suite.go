package main

import (
	"math/rand"

	"fpga3d/internal/bench"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/solver"
)

// benchCase is one suite member: a closure over an instance and a
// decision (or optimization) question. Instances are rebuilt per run so
// no state leaks between repetitions.
type benchCase struct {
	name  string
	kind  string // "opp", "mintime" or "minbase"
	quick bool   // member of the -quick subset
	// nodeLimit caps the per-decision node budget: node-capped cases
	// gate the propagation count over a fixed amount of search work on
	// instances whose full decision would be intractable.
	nodeLimit int64
	// full runs all three framework stages instead of search-only;
	// bounds and heuristic are deterministic too, so such cases gate
	// the whole pipeline.
	full bool
	run  func(opt solver.Options) (status string, value int, stats core.Stats, err error)
}

// capped returns the case with a per-decision node budget.
func capped(c benchCase, n int64) benchCase { c.nodeLimit = n; return c }

// fullStages returns the case with bounds and heuristic enabled.
func fullStages(c benchCase) benchCase { c.full = true; return c }

// oppCase wraps a single orthogonal packing decision.
func oppCase(name string, quick bool, mk func() *model.Instance, c model.Container) benchCase {
	return benchCase{name: name, kind: "opp", quick: quick,
		run: func(opt solver.Options) (string, int, core.Stats, error) {
			r, err := solver.SolveOPP(mk(), c, opt)
			if err != nil {
				return "", 0, core.Stats{}, err
			}
			return r.Decision.String(), 0, r.Stats, nil
		}}
}

// minTimeCase wraps a MinT&FindS sweep on a fixed chip.
func minTimeCase(name string, quick bool, mk func() *model.Instance, w, h int) benchCase {
	return benchCase{name: name, kind: "mintime", quick: quick,
		run: func(opt solver.Options) (string, int, core.Stats, error) {
			r, err := solver.MinTime(mk(), w, h, opt)
			if err != nil {
				return "", 0, core.Stats{}, err
			}
			return r.Decision.String(), r.Value, r.Stats, nil
		}}
}

// minBaseCase wraps a MinA&FindS sweep (minimal square chip) at a fixed
// latency bound.
func minBaseCase(name string, quick bool, mk func() *model.Instance, t int) benchCase {
	return benchCase{name: name, kind: "minbase", quick: quick,
		run: func(opt solver.Options) (string, int, core.Stats, error) {
			r, err := solver.MinBase(mk(), t, opt)
			if err != nil {
				return "", 0, core.Stats{}, err
			}
			return r.Decision.String(), r.Value, r.Stats, nil
		}}
}

// criticalPath returns the longest chain of task durations through the
// precedence DAG — the smallest horizon any schedule can meet.
func criticalPath(in *model.Instance) int {
	n := in.N()
	finish := make([]int, n)
	// Arcs are generated with From < To, so one index-order pass is a
	// topological relaxation.
	for v := 0; v < n; v++ {
		start := 0
		for _, a := range in.Prec {
			if a.To == v && finish[a.From] > start {
				start = finish[a.From]
			}
		}
		finish[v] = start + in.Tasks[v].Dur
	}
	best := 0
	for _, f := range finish {
		if f > best {
			best = f
		}
	}
	return best
}

// randomCase builds a seeded random instance and decides it in a
// container scaled so the search does real work: the chip holds a few
// of the largest modules side by side and the horizon sits between the
// critical path (num/den = 0/1) and the fully serialized schedule
// (num/den = 1/1).
func randomCase(name string, quick bool, mk func(rng *rand.Rand) *model.Instance, seed int64, wScale, tNum, tDen int) benchCase {
	build := func() (*model.Instance, model.Container) {
		in := mk(rand.New(rand.NewSource(seed)))
		side := in.MaxW()
		if h := in.MaxH(); h > side {
			side = h
		}
		cp := criticalPath(in)
		c := model.Container{
			W: side * wScale / 2,
			H: side * wScale / 2,
			T: cp + (in.TotalDuration()-cp)*tNum/tDen,
		}
		return in, c
	}
	return benchCase{name: name, kind: "opp", quick: quick,
		run: func(opt solver.Options) (string, int, core.Stats, error) {
			in, c := build()
			r, err := solver.SolveOPP(in, c, opt)
			if err != nil {
				return "", 0, core.Stats{}, err
			}
			return r.Decision.String(), 0, r.Stats, nil
		}}
}

// suite returns the full benchmark suite: the paper's evaluation
// instances (Section 5) pinned at their decisive containers, the HLS
// Biquad sweep, and seeded random instances that exercise the engine
// well past the paper's scale. Every case is deterministic: node and
// propagation counts depend only on the instance and the engine, never
// on timing.
func suite() []benchCase {
	cnt := func(w, h, t int) model.Container { return model.Container{W: w, H: h, T: t} }
	return []benchCase{
		// DE benchmark, Table 1 rows: the decisions that carry the
		// BMP sweeps, feasible and infeasible sides.
		oppCase("de/opp/16x16x14", true, bench.DE, cnt(16, 16, 14)),
		oppCase("de/opp/16x16x13", true, bench.DE, cnt(16, 16, 13)),
		oppCase("de/opp/17x17x13", true, bench.DE, cnt(17, 17, 13)),
		oppCase("de/opp/17x17x12", true, bench.DE, cnt(17, 17, 12)),
		oppCase("de/opp/31x31x12", false, bench.DE, cnt(31, 31, 12)),
		oppCase("de/opp/32x32x6", true, bench.DE, cnt(32, 32, 6)),

		// DE optimization sweeps (Table 1 / Figure 7 anchors).
		minBaseCase("de/minbase/t6", false, bench.DE, 6),
		minBaseCase("de/minbase/t13", false, bench.DE, 13),

		// H.261 video codec, Table 2. The full feasible-side decision
		// is intractable search-only, so it runs under a fixed node
		// budget; the paper's Table 2 optimum itself is gated through
		// the full framework.
		capped(oppCase("codec/opp/64x64x59", true, bench.VideoCodec, cnt(64, 64, 59)), 50_000),
		capped(oppCase("codec/opp/64x64x58", false, bench.VideoCodec, cnt(64, 64, 58)), 50_000),
		fullStages(minTimeCase("codec/mintime/64x64", false, bench.VideoCodec, 64, 64)),

		// HLS benchmark: three cascaded biquad sections on the minimal
		// DE chip.
		minTimeCase("hls/biquad3/17x17", false, func() *model.Instance { return bench.Biquad(3) }, 17, 17),

		// Seeded random instances, three generator families. These are
		// the search-heavy cases: more tasks than the paper's designs,
		// containers tight enough that the engine branches in anger.
		randomCase("rand/flat/n12", false, func(rng *rand.Rand) *model.Instance {
			return bench.Random(rng, 12, 10, 4, 0.25)
		}, 1001, 3, 1, 6),
		randomCase("rand/flat/n14", false, func(rng *rand.Rand) *model.Instance {
			return bench.Random(rng, 14, 10, 4, 0.2)
		}, 1002, 3, 1, 6),
		randomCase("rand/layered/l4", true, func(rng *rand.Rand) *model.Instance {
			return bench.RandomLayered(rng, 4, 3, 10, 4, 0.4)
		}, 2001, 3, 1, 6),
		randomCase("rand/layered/l5", false, func(rng *rand.Rand) *model.Instance {
			return bench.RandomLayered(rng, 5, 3, 10, 4, 0.35)
		}, 2002, 3, 1, 6),
		randomCase("rand/sp/n12", false, func(rng *rand.Rand) *model.Instance {
			return bench.RandomSeriesParallel(rng, 12, 10, 4)
		}, 3001, 3, 1, 6),
		randomCase("rand/sp/n14", false, func(rng *rand.Rand) *model.Instance {
			return bench.RandomSeriesParallel(rng, 14, 10, 4)
		}, 3002, 3, 1, 6),

		// Node-capped cases: instances past the tractable frontier, run
		// under a fixed node budget.
		capped(randomCase("rand/flat/n18/cap25k", false, func(rng *rand.Rand) *model.Instance {
			return bench.Random(rng, 18, 10, 4, 0.2)
		}, 1003, 3, 1, 6), 25_000),
		capped(randomCase("rand/flat/n16/cap25k", false, func(rng *rand.Rand) *model.Instance {
			return bench.Random(rng, 16, 10, 4, 0.3)
		}, 1004, 2, 1, 4), 25_000),
	}
}
