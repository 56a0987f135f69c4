package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
	"fpga3d/internal/solver"
)

// frontierCorpusSeed pins the search-frontier corpus. Regenerating or
// relabelling the corpus per run seed moved a pass's cost by ±20%
// (one instance crossing the node budget or not), twice the spread the
// other workloads show, so the run seed only orders the questions.
const frontierCorpusSeed = 1

// frontierQuestions is how many random questions a pass asks, and
// frontierNodeLimit their per-probe node budget. About half finish
// within it, so pruning shows in solved_frac; at 2 000 nodes a pass
// takes about 1.5 s on a 2-core host, and the median question is a
// search of some 40 ms rather than a question the bounds settle.
const (
	frontierQuestions = 40
	frontierNodeLimit = 2_000
)

// setupFrontier builds search-frontier: seeded random MinTime questions
// on a 6×6 chip that the bounds and greedy placer leave open, so the
// packing-class engine does nearly all the work, plus the pinned HLS
// biquad(3) on 17×17 (optimum 31) under a budget it finishes within.
// Probes run sequentially (Workers 1), so engine counts repeat exactly.
func setupFrontier(cfg config) (runner, error) {
	corpus := rand.New(rand.NewSource(frontierCorpusSeed))
	opt := solver.Options{Workers: 1, NodeLimit: frontierNodeLimit}
	var qs []question
	for drawn := 0; len(qs) < frontierQuestions; drawn++ {
		in := bench.Random(corpus, 14, 4, 4, 0.15)
		// A one-node budget reaches the engine only if the bounds and
		// the greedy placer left a probe open.
		r, err := solver.MinTime(in, 6, 6, solver.Options{Workers: 1, NodeLimit: 1})
		if err != nil {
			return nil, err
		}
		if r.Stats.Nodes == 0 {
			continue
		}
		in.Name = fmt.Sprintf("rand14.%03d", drawn)
		js, err := renderJSON(in)
		if err != nil {
			return nil, err
		}
		qs = append(qs, question{name: in.Name, js: js, mode: "min_time",
			ask: minTimeQ(6, 6), check: frontierCheck(6, 6), opt: opt})
	}
	js, err := renderJSON(bench.Biquad(3))
	if err != nil {
		return nil, err
	}
	qs = append(qs, question{name: "biquad3.min_time.17x17", js: js, mode: "min_time",
		ask: minTimeQ(17, 17), check: wantTime(17, 17, 31), opt: solver.Options{Workers: 1, NodeLimit: 20_000}})
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	// The decode/validate/order/hash path of every instance, once, as
	// the warm-up; a full pass would cost more than a second per setup.
	for _, q := range qs {
		in, err := model.ReadInstance(bytes.NewReader(q.js))
		if err != nil {
			return nil, err
		}
		if _, err := in.Order(); err != nil {
			return nil, err
		}
		_ = in.CanonicalHash()
	}
	return &questionSet{qs: qs, tail: 0.90, corrupt: cfg.corrupt}, nil
}

// frontierCheck accepts a proven optimum or a budget-limited answer,
// and verifies the witness either carries (an exhausted budget still
// returns the best incumbent found).
func frontierCheck(w, h int) func(*model.Instance, *outcome, *checker) error {
	return func(in *model.Instance, o *outcome, c *checker) error {
		if o.decision == solver.Infeasible {
			return fmt.Errorf("MinTime(%dx%d) infeasible, but every task fits the chip", w, h)
		}
		return verifyWitness(c, in, o.witness, model.Container{W: w, H: h, T: o.value})
	}
}
