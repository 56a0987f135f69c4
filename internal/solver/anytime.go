package solver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// AnytimeUpdate is one improvement notification of an anytime MinTime
// run: a new best incumbent, a raised proven lower bound, or the
// final proof of optimality. Best only decreases and LowerBound only
// increases across a run, so Gap is non-increasing and the Final
// update carries Gap 0.
type AnytimeUpdate struct {
	// Best is the best-known makespan (the incumbent upper bound).
	Best int
	// LowerBound is the best proven makespan lower bound so far.
	LowerBound int
	// Gap is bounds.Gap(Best, LowerBound): 0 exactly when the
	// incumbent is proven optimal.
	Gap float64
	// Source names what produced the update: "heuristic" (the greedy
	// incumbent), "anneal" (an annealing improvement), "search" or
	// another probe verdict (an exact-probe witness), "bound" (an
	// infeasibility proof raised the lower bound), or "proved" (the
	// Final update).
	Source string
	// Placement is the current best witness. It is shared with the
	// solver — callers must Clone before retaining or mutating it.
	Placement *model.Placement
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Final marks the terminal update of a completed run.
	Final bool
}

// anytimeState tracks the (incumbent, bound) pair of a running
// anytime solve and stamps it onto every progress snapshot, so SSE
// streams and live tickers see the current gap on each frame — not
// just on the frames that announce an improvement. Progress hooks may
// be invoked from engine worker goroutines, hence the lock.
type anytimeState struct {
	mu       sync.Mutex
	best, lo int
	seen     bool
}

func (a *anytimeState) set(best, lo int) {
	a.mu.Lock()
	a.best, a.lo, a.seen = best, lo, true
	a.mu.Unlock()
}

// annotate wraps a progress hook so every snapshot carries the
// current anytime fields; a nil hook stays nil.
func (a *anytimeState) annotate(prev obs.ProgressFunc) obs.ProgressFunc {
	if prev == nil {
		return nil
	}
	return func(s obs.Snapshot) {
		a.mu.Lock()
		if a.seen {
			s.Anytime = true
			s.BestMakespan = a.best
			s.LowerBound = a.lo
			s.Gap = bounds.Gap(a.best, a.lo)
		}
		a.mu.Unlock()
		prev(s)
	}
}

// anytimeObserver attaches the anytime tier's stream to a MinTime run:
// it wraps opt's Progress hook so every snapshot carries the run's
// (incumbent, bound) pair, and returns the sweep observer that
// publishes each improvement — gauges, an "anytime" trace event, an
// AnytimeUpdate and a fresh snapshot, which keeps pull-based consumers
// (SSE streams, tickers) current between node-cadence frames.
func anytimeObserver(opt *Options, start time.Time) observer {
	state := &anytimeState{}
	opt.Progress = state.annotate(opt.Progress)
	o := *opt
	return func(best, lo int, source string, pl *model.Placement, final bool) {
		state.set(best, lo)
		g := bounds.Gap(best, lo)
		o.Metrics.Gauge("anytime.best").Set(int64(best))
		o.Metrics.Gauge("anytime.lower_bound").Set(int64(lo))
		o.Trace.Emit("anytime", map[string]any{
			"best": best, "lower_bound": lo, "gap": g, "source": source, "final": final,
		})
		if o.OnImprovement != nil {
			o.OnImprovement(AnytimeUpdate{
				Best: best, LowerBound: lo, Gap: g, Source: source,
				Placement: pl, Elapsed: time.Since(start), Final: final,
			})
		}
		if o.Progress != nil {
			o.Progress(obs.Snapshot{Phase: obs.PhaseAnneal, Elapsed: time.Since(start)})
		}
	}
}

// annealIncumbent is the anytime tier's annealing stage: before any
// exact probe it tightens the sweep's incumbent with the annealing
// placer, each improvement reaching the observer as it lands. Target
// stops the walk as soon as an incumbent matches the proven bound.
func annealIncumbent(ctx context.Context, in *model.Instance, W, H int, order *model.Order, s *sweep[struct{}]) error {
	s.opt.notifyPhase(obs.PhaseAnneal)
	tAnneal := time.Now()
	_, _, ok := heur.AnnealMinMakespan(ctx, in, W, H, order, heur.AnnealOptions{
		Seed:   s.opt.AnnealSeed,
		Target: s.bound,
		OnImprove: func(p *model.Placement, mk int) {
			if mk < s.best {
				s.improve(mk, p.Clone(), struct{}{}, "anneal")
			}
		},
	})
	s.Stages.Anneal += time.Since(tAnneal)
	if !ok {
		return nil
	}
	if err := s.witness.Verify(in, model.Container{W: W, H: H, T: s.best}, order); err != nil {
		return fmt.Errorf("solver: annealer produced invalid schedule: %w", err)
	}
	return nil
}
