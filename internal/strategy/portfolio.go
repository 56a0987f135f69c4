package strategy

import (
	"context"
	"fmt"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Portfolio shares incumbents across the probes of an optimization
// run. Before running any stage it consults the incumbent store: a
// previously recorded feasible witness whose bounding box and makespan
// fit the probed container answers the probe outright ("incumbent",
// zero search nodes). Otherwise it runs the three stages — sequentially
// with one worker, or, with more, racing the cheap prover (bounds +
// heuristic) against the exact search and taking the first definitive
// answer. Every feasible answer is recorded back into the store, so
// one sweep step seeds the next.
//
// Portfolio answers are exact (a dominated probe is answered by a
// genuine witness; racing only reorders work), but statistics are not
// bit-identical to Staged: dominated probes spend no search nodes, and
// a lost race contributes the partial effort of its canceled search.
type Portfolio struct {
	env *Env
}

// NewPortfolio returns the incumbent-sharing portfolio strategy over
// env.
func NewPortfolio(env *Env) *Portfolio { return &Portfolio{env: env} }

// Name returns NamePortfolio.
func (s *Portfolio) Name() string { return NamePortfolio }

// Solve decides the problem with incumbent dominance, then either the
// sequential stages or a prover-versus-search race.
func (s *Portfolio) Solve(ctx context.Context, p *Problem) (*Result, error) {
	e := s.env
	if p.FixedStarts != nil {
		// Stored witnesses do not respect prescribed start times, so
		// the fixed-schedule variant bypasses the store and runs the
		// fixed-schedule pipeline, exactly as in Staged.
		return e.solveFixed(ctx, p, map[string]any{"strategy": NamePortfolio})
	}
	start := time.Now()
	res := &Result{}
	ctx, osp := e.oppSpan(ctx, p)
	defer func() { e.endOPPSpan(osp, res) }()
	e.Metrics.Counter("opp.calls").Inc()
	e.Trace.Emit("opp_start", map[string]any{
		"instance": p.In.Name, "n": p.In.N(), "W": p.C.W, "H": p.C.H, "T": p.C.T,
		"strategy": NamePortfolio,
	})
	if ctx.Err() != nil {
		res.Decision = Unknown
		res.DecidedBy = "canceled"
		res.Elapsed = time.Since(start)
		e.Metrics.Counter("opp.decided_by.canceled").Inc()
		e.traceOPPEnd(res, nil)
		return res, nil
	}

	// Incumbent dominance: a witness from an earlier probe of this run
	// that fits the container decides feasibility with zero work.
	if e.Inc != nil {
		if wit, src, ok := e.Inc.Dominating(p.C); ok {
			pl := wit.Clone()
			if err := pl.Verify(p.In, p.C, p.Order); err != nil {
				return nil, fmt.Errorf("solver: incumbent witness invalid: %w", err)
			}
			res.Decision = Feasible
			res.Placement = pl
			res.DecidedBy = "incumbent"
			res.Elapsed = time.Since(start)
			e.Metrics.Counter("opp.decided_by.incumbent").Inc()
			e.Metrics.Counter(obs.MetricStrategyIncumbentHits).Inc()
			e.traceOPPEnd(res, map[string]any{"incumbent_source": src})
			return res, nil
		}
	}

	if e.Workers > 1 {
		return s.race(ctx, p, res, start)
	}

	// Sequential stages, as in Staged, but recording witnesses.
	if !e.SkipBounds {
		e.notifyPhase(obs.PhaseBounds)
		ssp := e.stageSpan(ctx, obs.PhaseBounds)
		s0 := time.Now()
		bad, why := bounds.OPPInfeasible(p.In, p.C, p.Order)
		res.Stages.Bounds = time.Since(s0)
		ssp.End()
		if bad {
			res.Decision = Infeasible
			res.DecidedBy = "bound: " + why
			res.Elapsed = time.Since(start)
			e.Metrics.Counter("opp.decided_by.bounds").Inc()
			e.traceOPPEnd(res, map[string]any{"bound": why})
			return res, nil
		}
		e.Trace.Emit("stage", map[string]any{
			"phase": obs.PhaseBounds, "outcome": "pass", "elapsed_ms": MS(res.Stages.Bounds),
		})
	}
	if !e.SkipHeuristic {
		e.notifyPhase(obs.PhaseHeuristic)
		ssp := e.stageSpan(ctx, obs.PhaseHeuristic)
		s0 := time.Now()
		hp, mk, hok := e.heurWitness(p)
		res.Stages.Heuristic = time.Since(s0)
		ssp.End()
		if hok && mk <= p.C.T {
			pl := hp.Clone()
			if err := pl.Verify(p.In, p.C, p.Order); err != nil {
				return nil, fmt.Errorf("solver: heuristic produced invalid placement: %w", err)
			}
			s.record(p.In, pl, "heuristic")
			res.Decision = Feasible
			res.Placement = pl
			res.DecidedBy = "heuristic"
			res.Elapsed = time.Since(start)
			e.Metrics.Counter("opp.decided_by.heuristic").Inc()
			e.traceOPPEnd(res, nil)
			return res, nil
		}
		e.Trace.Emit("stage", map[string]any{
			"phase": obs.PhaseHeuristic, "outcome": "miss", "elapsed_ms": MS(res.Stages.Heuristic),
		})
	}
	out, err := e.solveSearch(ctx, p, res, start, nil)
	if err == nil && out.Decision == Feasible {
		s.record(p.In, out.Placement, "search")
	}
	return out, err
}

// record stores a feasible witness in the incumbent store, if one is
// attached.
func (s *Portfolio) record(in *model.Instance, pl *model.Placement, source string) {
	if s.env.Inc != nil {
		s.env.Inc.RecordWitness(in, pl, source)
	}
}

// raceAnswer is one contender's outcome in a prover-versus-search
// race.
type raceAnswer struct {
	res   *Result
	err   error
	from  string // "prover" or "search"
	extra map[string]any
}

// decided reports whether the answer settles the question.
func (a raceAnswer) decided() bool {
	return a.err == nil && (a.res.Decision == Feasible || a.res.Decision == Infeasible)
}

// race runs the cheap prover (bounds, then heuristic) concurrently
// with the exact search; the first definitive answer wins and cancels
// the other contender. The canceled search's partial statistics are
// merged into the result, so the node accounting stays the sum of all
// shards.
func (s *Portfolio) race(ctx context.Context, p *Problem, res *Result, start time.Time) (*Result, error) {
	e := s.env
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e.notifyPhase(obs.PhaseSearch)
	ch := make(chan raceAnswer, 2)

	go func() { // prover: stage 1 then stage 2
		psp := e.stageSpan(ctx, "prover")
		defer psp.End()
		pr := &Result{}
		if !e.SkipBounds {
			s0 := time.Now()
			bad, why := bounds.OPPInfeasible(p.In, p.C, p.Order)
			pr.Stages.Bounds = time.Since(s0)
			if bad {
				pr.Decision = Infeasible
				pr.DecidedBy = "bound: " + why
				ch <- raceAnswer{res: pr, from: "prover", extra: map[string]any{"bound": why}}
				return
			}
		}
		if !e.SkipHeuristic {
			s0 := time.Now()
			hp, mk, hok := e.heurWitness(p)
			pr.Stages.Heuristic = time.Since(s0)
			if hok && mk <= p.C.T {
				pl := hp.Clone()
				if err := pl.Verify(p.In, p.C, p.Order); err != nil {
					ch <- raceAnswer{err: fmt.Errorf("solver: heuristic produced invalid placement: %w", err), from: "prover"}
					return
				}
				pr.Decision = Feasible
				pr.Placement = pl
				pr.DecidedBy = "heuristic"
				ch <- raceAnswer{res: pr, from: "prover"}
				return
			}
		}
		pr.Decision = Unknown // inconclusive: neither bound nor witness
		ch <- raceAnswer{res: pr, from: "prover"}
	}()

	go func() { // exact search under the cancelable sub-context
		ssp := e.stageSpan(sctx, obs.PhaseSearch)
		defer ssp.End()
		sr := &Result{}
		// A task exceeding the container in some dimension is trivially
		// infeasible; the engine treats such input as a programmer error
		// (stage 1 screens it in the sequential pipeline), so the racing
		// search screens it itself rather than relying on the prover.
		for _, t := range p.In.Tasks {
			if t.W > p.C.W || t.H > p.C.H || t.Dur > p.C.T {
				sr.Decision = Infeasible
				sr.DecidedBy = "search"
				ch <- raceAnswer{res: sr, from: "search"}
				return
			}
		}
		s0 := time.Now()
		prob := BuildProblem(p.In, p.C, p.Order, nil)
		r := core.Solve(prob, e.searchOpts(sctx, p))
		sr.Stages.Search = time.Since(s0)
		sr.Stats = r.Stats
		e.Metrics.Counter(obs.MetricSearchNodes).Add(r.Stats.Nodes)
		e.Metrics.Counter(obs.MetricSearchPropagations).Add(r.Stats.Propagations)
		switch r.Status {
		case core.StatusFeasible:
			pl := SolutionToPlacement(r.Solution)
			if err := pl.Verify(p.In, p.C, p.Order); err != nil {
				ch <- raceAnswer{err: fmt.Errorf("solver: search produced invalid placement: %w", err), from: "search"}
				return
			}
			sr.Decision = Feasible
			sr.Placement = pl
			sr.DecidedBy = "search"
		case core.StatusInfeasible:
			sr.Decision = Infeasible
			sr.DecidedBy = "search"
		case core.StatusCanceled:
			sr.Decision = Unknown
			sr.DecidedBy = "canceled"
		default:
			sr.Decision = Unknown
			sr.DecidedBy = "limit"
		}
		ch <- raceAnswer{res: sr, from: "search"}
	}()

	var winner *raceAnswer
	var fallback *raceAnswer // the search's undecided answer, if any
	for i := 0; i < 2; i++ {
		a := <-ch
		if a.err != nil {
			cancel()
			for j := i + 1; j < 2; j++ {
				<-ch // drain so the goroutine can exit
			}
			return nil, a.err
		}
		res.Stats.Add(a.res.Stats)
		res.Stages.Add(a.res.Stages)
		if a.decided() && winner == nil {
			w := a
			winner = &w
			cancel() // first definitive answer wins; stop the loser
		} else if a.from == "search" && winner == nil {
			w := a
			fallback = &w
		}
	}

	extra := map[string]any{"race": true}
	switch {
	case winner != nil:
		res.Decision = winner.res.Decision
		res.Placement = winner.res.Placement
		res.DecidedBy = winner.res.DecidedBy
		extra["race_winner"] = winner.from
		for k, v := range winner.extra {
			extra[k] = v
		}
	case fallback != nil:
		// Neither contender decided: the search's limit/cancel outcome
		// is the run's outcome.
		res.Decision = Unknown
		res.DecidedBy = fallback.res.DecidedBy
	default:
		res.Decision = Unknown
		res.DecidedBy = "canceled"
	}
	res.Elapsed = time.Since(start)
	e.Metrics.Counter("opp.decided_by." + decidedByCounter(res.DecidedBy)).Inc()
	e.traceOPPEnd(res, extra)
	if res.Decision == Feasible {
		s.record(p.In, res.Placement, res.DecidedBy)
	}
	return res, nil
}

// decidedByCounter maps a DecidedBy label to its metric counter
// suffix ("bound: volume" → "bounds").
func decidedByCounter(decidedBy string) string {
	if len(decidedBy) >= 5 && decidedBy[:5] == "bound" {
		return "bounds"
	}
	return decidedBy
}
