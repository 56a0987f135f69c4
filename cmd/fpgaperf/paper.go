package main

import (
	"fmt"
	"math/rand"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
	"fpga3d/internal/solver"
)

// setupPaper builds paper-sweeps: the paper's questions as a library
// user asks them, with default Options (so sweep racing uses every
// core), rotating through the three strategies. Every probe is settled
// by bounds or the greedy placer, so the sweep driver, stage pipeline,
// bounds, heuristics and decoding do the work and the engine none.
//
// The seed relabels every instance's tasks and shuffles the question
// order; the optima are label-invariant and pinned.
func setupPaper(cfg config) (runner, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	specs := []struct {
		name  string
		in    *model.Instance
		mode  string
		ask   func(*model.Instance, solver.Options) (*outcome, error)
		check func(*model.Instance, *outcome, *checker) error
	}{
		{"de.min_base.t6", bench.DE(), "min_base", minBaseQ(6), wantBase(6, 32)},
		{"de.min_base.t13", bench.DE(), "min_base", minBaseQ(13), wantBase(13, 17)},
		{"de.min_time.17x17", bench.DE(), "min_time", minTimeQ(17, 17), wantTime(17, 17, 13)},
		{"codec.min_time.64x64", bench.VideoCodec(), "min_time", minTimeQ(64, 64), wantTime(64, 64, 59)},
		{"fir8.min_time.17x17", bench.FIR(8), "min_time", minTimeQ(17, 17), wantTime(17, 17, 19)},
		{"fft8.min_time.17x17", bench.FFT(8), "min_time", minTimeQ(17, 17), wantTime(17, 17, 25)},
		{"de.pareto", bench.DE(), "pareto", paretoQ, wantPareto([]solver.ParetoPoint{{T: 6, H: 32}, {T: 13, H: 17}, {T: 14, H: 16}})},
		{"codec.pareto", bench.VideoCodec(), "pareto", paretoQ, wantPareto([]solver.ParetoPoint{{T: 59, H: 64}})},
	}
	var qs []question
	for _, sp := range specs {
		js, err := renderJSON(relabel(sp.in, rng))
		if err != nil {
			return nil, err
		}
		for _, strat := range []string{"staged", "portfolio", "anneal"} {
			qs = append(qs, question{name: sp.name + "/" + strat, js: js, mode: sp.mode,
				ask: sp.ask, check: sp.check, opt: solver.Options{Strategy: strat}})
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	set := &questionSet{qs: qs, tail: 0.99, window: tailWindow(0.99), corrupt: cfg.corrupt}
	// One untimed pass fills lazily built state (and the page cache of
	// the code paths) before anything is measured.
	m, err := set.run(0, nil)
	if err != nil {
		return nil, err
	}
	if m.chk.failed > 0 && !cfg.corrupt {
		return nil, fmt.Errorf("warm-up pass: %s", m.chk.msgs[0])
	}
	return set, nil
}

// relabel returns a copy of in with its tasks renumbered by a random
// permutation (precedence arcs follow their tasks).
func relabel(in *model.Instance, rng *rand.Rand) *model.Instance {
	perm := rng.Perm(in.N())
	out := &model.Instance{Name: in.Name, Tasks: make([]model.Task, in.N())}
	for i, t := range in.Tasks {
		out.Tasks[perm[i]] = t
	}
	for _, a := range in.Prec {
		out.Prec = append(out.Prec, model.Arc{From: perm[a.From], To: perm[a.To]})
	}
	return out
}

// wantBase pins a MinBase optimum and verifies its witness.
func wantBase(t, h int) func(*model.Instance, *outcome, *checker) error {
	return func(in *model.Instance, o *outcome, c *checker) error {
		if o.decision != solver.Feasible || o.value != h {
			return fmt.Errorf("MinBase(T=%d) = %d (%s), want %d", t, o.value, o.decision, h)
		}
		return verifyWitness(c, in, o.witness, model.Container{W: h, H: h, T: t})
	}
}

// wantTime pins a MinTime optimum and verifies its witness.
func wantTime(w, h, t int) func(*model.Instance, *outcome, *checker) error {
	return func(in *model.Instance, o *outcome, c *checker) error {
		if o.decision != solver.Feasible || o.value != t {
			return fmt.Errorf("MinTime(%dx%d) = %d (%s), want %d", w, h, o.value, o.decision, t)
		}
		return verifyWitness(c, in, o.witness, model.Container{W: w, H: h, T: t})
	}
}

// wantPareto pins a Pareto front.
func wantPareto(want []solver.ParetoPoint) func(*model.Instance, *outcome, *checker) error {
	return func(_ *model.Instance, o *outcome, _ *checker) error {
		if fmt.Sprint(o.points) != fmt.Sprint(want) {
			return fmt.Errorf("Pareto front %v, want %v", o.points, want)
		}
		return nil
	}
}

// verifyWitness checks a witness against its container and the
// instance's precedence order.
func verifyWitness(c *checker, in *model.Instance, p *model.Placement, cont model.Container) error {
	order, err := in.Order()
	if err != nil {
		return err
	}
	if err := c.verify(in, p, cont, order); err != nil {
		return fmt.Errorf("witness on %v: %w", cont, err)
	}
	return nil
}
