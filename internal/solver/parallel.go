package solver

import (
	"context"
	"fmt"
	"runtime/debug"

	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Concurrent optimization sweeps.
//
// Every optimization driver in this package answers its question by a
// sequence of independent OPP decisions over a monotone feasibility
// predicate: the BMP ascent probes chip sides h = lb, lb+1, … until the
// first feasible one, the SPP binary search probes time budgets inside
// a shrinking interval, and the Pareto walk strings BMP ascents
// together. Each decision is a self-contained certificate — a fresh
// engine over an immutable instance — so the probes of one sweep can
// race on a worker pool without communicating.
//
// The racers below keep the answer bit-identical to the sequential
// sweep by construction rather than by locking:
//
//   - Monotonicity makes completed probes compose: a feasibility proof
//     at value v bounds the optimum from above (every larger container
//     also fits), an infeasibility proof bounds it from below (every
//     smaller container also fails). The optimum is pinned exactly
//     when the two frontiers meet, independent of arrival order.
//   - First-useful-answer pruning cancels probes whose outcome has
//     become redundant — probes above a feasibility proof, probes
//     below an infeasibility proof. The probe at the optimum is never
//     redundant in either direction, so it always runs to completion,
//     and since each probe is deterministic, the witness placement at
//     the optimum is the same one the sequential sweep returns.
//
// Statistics of every probe — including partial statistics of canceled
// ones — are merged into the caller's aggregate with Stats.Add, so the
// merged node count equals the sum over the per-probe shards reported
// in the trace (the opp_end events).

// probeFunc runs one raced OPP decision at sweep value v. It must be
// deterministic given v; ctx cancellation makes it return a result
// with DecidedBy "canceled" rather than an error.
type probeFunc func(ctx context.Context, v int) (*OPPResult, error)

// proberesult couples a finished probe with its sweep value.
type probeOutcome struct {
	v   int
	res *OPPResult
	err error
}

// racer is the shared worker-pool plumbing of the two sweep shapes:
// it tracks in-flight probes, launches them on demand, cancels them
// selectively, and guarantees that every launched probe is drained and
// merged (via onProbe) before the racer is abandoned.
type racer struct {
	ctx     context.Context
	workers int
	probe   probeFunc
	onProbe func(v int, r *OPPResult)
	metrics *obs.Registry

	results chan probeOutcome
	cancels map[int]context.CancelFunc
}

func newRacer(ctx context.Context, workers int, probe probeFunc, onProbe func(int, *OPPResult), metrics *obs.Registry) *racer {
	return &racer{
		ctx:     ctx,
		workers: workers,
		probe:   probe,
		onProbe: onProbe,
		metrics: metrics,
		results: make(chan probeOutcome, workers),
		cancels: make(map[int]context.CancelFunc),
	}
}

// launch starts the probe at v on a fresh goroutine under a child
// context, so it can be canceled individually. A panicking probe
// delivers the panic, with its stack, as the probe's error (counted
// under obs.MetricProbePanics), so the sweep fails and drains like on
// any other probe error instead of crashing the process.
func (r *racer) launch(v int) {
	cctx, cancel := context.WithCancel(r.ctx)
	r.cancels[v] = cancel
	go func() {
		out := probeOutcome{v: v}
		defer func() {
			if p := recover(); p != nil {
				r.metrics.Counter(obs.MetricProbePanics).Inc()
				out.res, out.err = nil, fmt.Errorf("solver: probe at %d panicked: %v\n%s", v, p, debug.Stack())
			}
			r.results <- out
		}()
		out.res, out.err = r.probe(cctx, v)
	}()
}

// next blocks for the next finished probe, releases its cancel func
// and merges its effort.
func (r *racer) next() probeOutcome {
	out := <-r.results
	r.cancels[out.v]()
	delete(r.cancels, out.v)
	if out.res != nil {
		r.onProbe(out.v, out.res)
	}
	return out
}

// cancelWhere cancels every in-flight probe whose value satisfies the
// predicate. The probes still deliver (partial-effort) results, which
// next/drain merge.
func (r *racer) cancelWhere(pred func(v int) bool) {
	for v, cancel := range r.cancels {
		if pred(v) {
			cancel()
		}
	}
}

// drain cancels and collects every remaining in-flight probe so no
// goroutine outlives the sweep and no shard of statistics is lost.
func (r *racer) drain() {
	for _, cancel := range r.cancels {
		cancel()
	}
	for len(r.cancels) > 0 {
		r.next()
	}
}

// raceAscending races the ascending sweep v = lo, lo+1, …, hi of a
// predicate that is monotone in v (infeasible below the optimum,
// feasible at and above it) and returns the decision the sequential
// ascent would reach: (Feasible, v*, witness) for the smallest
// feasible v*, Infeasible if the whole range is refuted, or Unknown if
// a node/time limit blocked the frontier probe. On parent-context
// cancellation it returns ctx.Err() after merging all partial shards.
//
// Because an infeasibility proof at v implies infeasibility for every
// v' ≤ v, such probes are canceled as redundant; a feasibility proof
// at v likewise cancels every probe above v. The frontier probe at v*
// is never redundant, so its (deterministic) witness is bit-identical
// to the sequential one.
func raceAscending(ctx context.Context, workers, lo, hi int, probe probeFunc, onProbe func(int, *OPPResult), metrics *obs.Registry) (Decision, int, *OPPResult, error) {
	r := newRacer(ctx, workers, probe, onProbe, metrics)
	defer r.drain()

	next := lo       // high-water mark of launched values
	maxInf := lo - 1 // all v ≤ maxInf are proven or implied infeasible
	bestFeas := hi + 1
	var bestRes *OPPResult
	unknown := make(map[int]bool) // genuine limit hits, by value

	for {
		// Keep the window full, ascending from the open frontier.
		for len(r.cancels) < r.workers {
			if next <= maxInf {
				next = maxInf + 1
			}
			if next > hi || next >= bestFeas {
				break
			}
			r.launch(next)
			next++
		}

		// Resolved? The frontier value just above the infeasible prefix
		// decides the sweep the moment it is known.
		frontier := maxInf + 1
		switch {
		case bestFeas <= hi && frontier == bestFeas:
			return Feasible, bestFeas, bestRes, nil
		case frontier > hi:
			return Infeasible, 0, nil, nil
		case unknown[frontier]:
			// The sequential ascent gives up at its first undecided
			// probe; mirror that once the undecided value is frontal.
			return Unknown, 0, nil, nil
		}

		out := r.next()
		if out.err != nil {
			return Unknown, 0, nil, out.err
		}
		if err := ctx.Err(); err != nil {
			return Unknown, 0, nil, err
		}
		switch out.res.Decision {
		case Feasible:
			if out.v < bestFeas {
				bestFeas, bestRes = out.v, out.res
				r.cancelWhere(func(v int) bool { return v > bestFeas })
			}
		case Infeasible:
			if out.v > maxInf {
				maxInf = out.v
				r.cancelWhere(func(v int) bool { return v <= maxInf })
			}
		default:
			if out.res.DecidedBy != "canceled" {
				unknown[out.v] = true
			}
		}
	}
}

// raceBinary races the binary search for the smallest feasible value
// in [lo, hi], where hi is already known feasible. With one worker it
// probes exactly the sequential bisection points; with more it
// speculatively probes the bisection points of the sub-intervals so a
// slow probe never serializes the whole search. Narrowing is sound for
// any arrival order (monotone predicate), so the optimum is the
// sequential one; the returned witness is non-nil iff the optimum was
// proven by a probe (it stays nil when hi itself is optimal, in which
// case the caller's pre-existing witness for hi stands).
func raceBinary(ctx context.Context, workers, lo, hi int, probe probeFunc, onProbe func(int, *OPPResult), metrics *obs.Registry) (Decision, int, *OPPResult, error) {
	r := newRacer(ctx, workers, probe, onProbe, metrics)
	defer r.drain()

	var bestRes *OPPResult // witness at hi, once a probe proves one

	for lo < hi {
		for _, v := range bisectPoints(lo, hi, r.cancels, r.workers-len(r.cancels)) {
			r.launch(v)
		}
		out := r.next()
		if out.err != nil {
			return Unknown, 0, nil, out.err
		}
		if err := ctx.Err(); err != nil {
			return Unknown, 0, nil, err
		}
		switch out.res.Decision {
		case Feasible:
			if out.v < hi {
				hi, bestRes = out.v, out.res
				r.cancelWhere(func(v int) bool { return v > hi })
			}
		case Infeasible:
			if out.v+1 > lo {
				lo = out.v + 1
				r.cancelWhere(func(v int) bool { return v < lo })
			}
		default:
			if out.res.DecidedBy != "canceled" {
				// A genuine limit: like the sequential search, stop and
				// report the best proven point.
				return Unknown, hi, bestRes, nil
			}
		}
	}
	return Feasible, hi, bestRes, nil
}

// bisectPoints yields up to k probe targets for the live interval
// [lo, hi): the bisection midpoint first, then the midpoints of the
// halves it splits off, breadth-first — the speculative generalization
// of binary search to k concurrent probes. Values already in flight
// are skipped.
func bisectPoints(lo, hi int, running map[int]context.CancelFunc, k int) []int {
	type iv struct{ a, b int }
	queue := []iv{{lo, hi}}
	var out []int
	for len(queue) > 0 && len(out) < k {
		c := queue[0]
		queue = queue[1:]
		if c.b <= c.a {
			continue
		}
		mid := (c.a + c.b) / 2
		if _, inFlight := running[mid]; !inFlight {
			out = append(out, mid)
		}
		queue = append(queue, iv{c.a, mid}, iv{mid + 1, c.b})
	}
	return out
}

// probeOutcomeLabel names a probe's outcome for trace events,
// distinguishing pruned probes from genuine limit hits.
func probeOutcomeLabel(r *OPPResult) string {
	if r.DecidedBy == "canceled" {
		return "canceled"
	}
	return r.Decision.String()
}

// mergeProbe is the standard onProbe hook: it accumulates one probe's
// effort (full or partial) into the aggregate optimization result.
func (res *OptResult) mergeProbe(r *OPPResult) {
	res.Probes++
	res.Stats.Add(r.Stats)
	res.Stages.Add(r.Stages)
}

// oppProbe builds the probeFunc for a plain FeasAT&FindS sweep where
// the sweep value selects the container. The sweep already saturates
// the worker pool, so each probe's engine search runs sequentially
// rather than also stealing work.
func oppProbe(in *model.Instance, order *model.Order, opt Options, container func(v int) model.Container) probeFunc {
	opt.Workers = 1
	return func(ctx context.Context, v int) (*OPPResult, error) {
		return solveOPP(ctx, in, container(v), order, opt)
	}
}
