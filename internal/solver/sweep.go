package solver

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"fpga3d/internal/bounds"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/strategy"
)

// One sweep driver.
//
// Every optimization driver in this package answers its question by a
// monotone search over one OPP predicate on an integer interval:
// infeasible below the optimum, feasible at and above it. MinT&FindS
// sweeps the time budget, MinA&FindS the square chip side, MinChips the
// chip count, MinArea the height of each width. sweep is that search,
// written once:
//
//   - State: the proven bound (every value below it is refuted), the
//     incumbent (the smallest value proven feasible) with its witness
//     and payload, and the merged effort of every probe.
//   - Order: ascend probes the bound itself, the paper's linear ascent;
//     bisect probes the midpoint between the bound and the incumbent,
//     or the top of the interval while there is no incumbent. An ascent
//     seeded with an incumbent (each Pareto step starts from the
//     previous step's chip) first probes just below it: infeasible
//     there settles the sweep in one probe, feasible lowers the
//     incumbent and the ascent goes on from the bound, and a limit
//     there is one-shot, so the ascent goes on too.
//   - Executor: each probe runs inline on the caller's goroutine, and
//     at Workers > 1 it explores its tree on a work-stealing pool of
//     Workers engines. A raced sweep (MinTime, MinBase and
//     MinBaseFixedSchedule, the drivers whose sweeps run many probes of
//     comparable cost) instead races up to Workers probes on a pool of
//     goroutines at Workers > 1: the order's next value plus
//     speculative ones (the next values of the ascent, or the bisection
//     points of the halves the midpoint splits off); the probe just
//     below an incumbent runs alone. Each decision is a
//     self-contained certificate — a fresh engine over an immutable
//     instance — so the probes need not communicate, and each runs a
//     sequential engine, so a sweep uses at most Workers goroutines.
//     The other drivers' sweeps and the streamed anytime refinement
//     often settle on one expensive probe, where stealing inside it
//     beats racing speculative neighbours.
//   - Observer: an optional hook sees every improvement of the
//     (incumbent, bound) pair; the anytime tier streams them.
//
// Monotonicity makes completed probes compose in any arrival order: a
// feasibility proof at v bounds the optimum from above, an
// infeasibility proof bounds it from below, and the optimum is pinned
// when the two meet. A race cancels the probes that became redundant
// (below the bound or at and above the incumbent). The probe at the
// optimum never does, so it runs to completion, and since each probe is
// deterministic, the witness at the optimum is the one the inline sweep
// returns.
//
// A probe that hits a node or time limit leaves its value undecided.
// The sweep gives up once its order would probe such a value next
// (the probe just below the incumbent aside, which is one-shot): the
// inline executor stops at its first undecided probe, a race may get
// further, so racing matches the inline answer only when no probe hits
// a limit. Either way a partial result carries the best proven pair.
// Every probe is folded into the state exactly once — canceled ones
// with their partial statistics, and results collected while draining
// a race — so the merged node count equals the sum of the per-probe
// shards in the trace (the opp_end events).

// probeFunc decides the OPP question at sweep value v under opt and
// returns the decision together with the witness payload P that the
// driver reports beside the placement (a chip assignment, a rotation
// mask). It must be deterministic given v; ctx cancellation makes it
// return a result with DecidedBy "canceled" rather than an error.
type probeFunc[P any] func(ctx context.Context, opt Options, v int) (*OPPResult, P, error)

// observer sees every improvement of a sweep's (incumbent, bound) pair
// and, with final set, the proof that closes the gap.
type observer func(best, bound int, source string, pl *model.Placement, final bool)

// driverRun is one optimization run: the result it builds, its trace mode
// and its span.
type driverRun struct {
	OptResult
	opt   Options
	mode  string
	start time.Time
	span  *obs.Span
}

// begin opens an optimization run: the driver span, as a child of the
// span carried by ctx (in fpgad, the request span), and the
// solve_start event carrying the question's fields.
func (o Options) begin(ctx context.Context, mode string, in *model.Instance, fields map[string]any) (context.Context, *driverRun) {
	r := &driverRun{opt: o, mode: mode, start: time.Now()}
	ctx, r.span = obs.StartSpan(ctx, o.Trace, mode)
	if r.span != nil {
		r.span.SetAttr("instance", in.Name)
	}
	if o.Trace != nil {
		f := map[string]any{"mode": mode, "instance": in.Name, "n": in.N()}
		for k, v := range fields {
			f[k] = v
		}
		o.Trace.Emit("solve_start", f)
	}
	return ctx, r
}

// finish stamps the run's outcome, writes solve_end with the merged
// effort and ends the driver span.
func (r *driverRun) finish(d Decision, value, bound int, pl *model.Placement) *OptResult {
	r.Decision, r.Value, r.BestBound, r.Placement = d, value, bound, pl
	r.Gap = bounds.Gap(value, bound)
	r.Elapsed = time.Since(r.start)
	if tr := r.opt.Trace; tr != nil {
		tr.Emit("solve_end", map[string]any{
			"mode":        r.mode,
			"decision":    d.String(),
			"value":       value,
			"lower_bound": r.LowerBound,
			"best_bound":  bound,
			"gap":         r.Gap,
			"probes":      r.Probes,
			"nodes":       r.Stats.Nodes,
			"elapsed_ms":  ms(r.Elapsed),
			"stages_ms":   stagesMS(r.Stages),
			"stats":       r.Stats,
		})
	}
	if r.span != nil {
		r.span.SetAttr("decision", d.String())
		r.span.SetAttr("value", value)
		r.span.SetAttr("probes", r.Probes)
		r.span.End()
	}
	return &r.OptResult
}

// probe records one sweep probe in the trace.
func (o Options) probe(mode string, fields map[string]any) {
	if o.Trace == nil {
		return
	}
	f := map[string]any{"mode": mode}
	for k, v := range fields {
		f[k] = v
	}
	o.Trace.Emit("probe", f)
	o.Metrics.Counter("probes").Inc()
}

// incumbent records a new best objective value with its source stage.
func (o Options) incumbent(mode string, value int, source string) {
	if o.Metrics != nil {
		o.Metrics.Gauge("incumbent." + mode).Set(int64(value))
	}
	if o.Trace != nil {
		o.Trace.Emit("incumbent", map[string]any{"mode": mode, "value": value, "source": source})
	}
}

// probeOutcomeLabel names a probe's outcome for trace events,
// distinguishing pruned probes from genuine limit hits.
func probeOutcomeLabel(r *OPPResult) string {
	if r.DecidedBy == "canceled" {
		return "canceled"
	}
	return r.Decision.String()
}

// sweep finds the smallest value in [lo, hi] at which probe is
// feasible; see the comment at the top of this file.
type sweep[P any] struct {
	*driverRun
	probe probeFunc[P]
	// key names the swept value in probe and incumbent events; with ""
	// the probe records its own probe events and the driver its
	// incumbents.
	key    string
	ascend bool
	// objective, when non-nil, reads a witness's own objective value
	// (its makespan), which may lie below the budget it was probed at.
	objective func(*model.Placement) int
	observe   observer
	belowTop  bool
	// raced sweeps race their probes at Workers > 1, unless an
	// observer streams them (the anytime refinement).
	raced bool
	// floor is a prefix an earlier search refuted: bisection steps past
	// its points below floor unprobed, so it probes the points a
	// bisection of the whole interval would.
	floor int

	hi      int
	bound   int // every value below bound is refuted
	best    int // the smallest value proven feasible; hi+1 while none is
	witness *model.Placement
	payload P
	decided int   // probes answered Feasible or Infeasible
	stuck   []int // values a probe failed to decide within its limits
}

func newSweep[P any](r *driverRun, key string, lo, hi int, ascend bool, probe probeFunc[P]) *sweep[P] {
	return &sweep[P]{driverRun: r, probe: probe, key: key, ascend: ascend, hi: hi, bound: lo, best: hi + 1}
}

// improve offers a feasible point at value v; it becomes the incumbent
// if it beats the current one.
func (s *sweep[P]) improve(v int, pl *model.Placement, p P, source string) {
	if v >= s.best {
		return
	}
	s.best, s.witness, s.payload = v, pl, p
	if s.key != "" {
		s.opt.incumbent(s.mode, v, source)
	}
	if s.observe != nil {
		s.observe(v, s.bound, source, pl, false)
	}
}

// fold merges one finished probe at v into the state.
func (s *sweep[P]) fold(v int, r *OPPResult, p P) {
	s.Probes++
	s.Stats.Add(r.Stats)
	s.Stages.Add(r.Stages)
	if s.key != "" && s.opt.Trace != nil {
		s.opt.probe(s.mode, map[string]any{s.key: v, "outcome": probeOutcomeLabel(r)})
	}
	switch r.Decision {
	case Feasible:
		s.decided++
		if s.objective != nil {
			v = min(v, s.objective(r.Placement))
		}
		s.improve(v, r.Placement, p, r.DecidedBy)
	case Infeasible:
		s.decided++
		if v >= s.bound {
			s.bound = v + 1
			if s.observe != nil {
				s.observe(s.best, s.bound, "bound", s.witness, false)
			}
		}
	default:
		if r.DecidedBy != "canceled" {
			s.stuck = append(s.stuck, v)
		}
	}
}

// pick is the value the order probes next. A bisection first raises
// the bound past its points below floor.
func (s *sweep[P]) pick() int {
	if !s.ascend && s.best <= s.hi {
		for s.bound < s.best && s.bound+(s.best-s.bound)/2 < s.floor {
			s.bound += (s.best-s.bound)/2 + 1
		}
	}
	if s.probesBelowTop() {
		return s.best - 1
	}
	switch {
	case s.ascend:
		return s.bound
	case s.best > s.hi:
		return s.hi // no incumbent yet: establish the top of the interval
	}
	return s.bound + (s.best-s.bound)/2
}

// probesBelowTop reports whether the order's next probe is the
// incumbent-optimality probe: if the point just below the incumbent is
// infeasible, one probe closes the interval. It is one-shot: once a
// limit leaves it undecided, the order goes on.
func (s *sweep[P]) probesBelowTop() bool {
	return s.belowTop && s.decided == 0 && s.bound < s.best-1 && !slices.Contains(s.stuck, s.best-1)
}

// picks yields up to k values to probe, none of them busy: the order's
// pick first, then the next values of the ascent, or the bisection
// points of the halves the midpoint splits off, breadth-first. The
// incumbent-optimality probe runs alone, since it usually settles the
// sweep and would leave probes beside it to be canceled.
func (s *sweep[P]) picks(k int, busy func(int) bool) []int {
	var out []int
	take := func(v int) {
		if len(out) < k && v >= s.floor && !busy(v) && !slices.Contains(s.stuck, v) && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	take(s.pick())
	if s.probesBelowTop() {
		return out
	}
	if s.ascend {
		for v := s.bound; v < s.best && v <= s.hi && len(out) < k; v++ {
			take(v)
		}
		return out
	}
	queue := [][2]int{{s.bound, min(s.best, s.hi)}}
	for len(queue) > 0 && len(out) < k {
		a, b := queue[0][0], queue[0][1]
		queue = queue[1:]
		if b <= a {
			continue
		}
		mid := a + (b-a)/2
		take(mid)
		queue = append(queue, [2]int{a, mid}, [2]int{mid + 1, b})
	}
	return out
}

// settled reports whether the sweep is over: the bound met the
// incumbent, or the order's next value is one a probe left undecided.
func (s *sweep[P]) settled() bool {
	v := s.pick() // first, as it may raise the bound
	return s.bound >= s.best || slices.Contains(s.stuck, v)
}

func (s *sweep[P]) decision() Decision {
	switch {
	case s.bound < s.best:
		return Unknown
	case s.best <= s.hi:
		return Feasible
	}
	return Infeasible
}

// search runs the sweep until it is settled, ctx ends or a probe
// fails. It returns the probe's error, or ctx.Err() when the sweep
// stopped undecided.
func (s *sweep[P]) search(ctx context.Context) error {
	// The order extras are resolved here and only here. An ascent
	// seeded with an incumbent probes just below it first. On a sweep
	// over a witness objective, the portfolio preset does the same and
	// jumps to each witness's objective; a streamed (anytime) run
	// always jumps, so every update reports the best point known.
	s.belowTop = s.ascend && s.best <= s.hi
	if s.objective != nil {
		portfolio := s.opt.Strategy == strategy.NamePortfolio
		s.belowTop = portfolio && s.observe == nil
		if !portfolio && s.observe == nil {
			s.objective = nil
		}
	}
	if s.raced && s.observe == nil && s.opt.Workers > 1 {
		// Raced probes run a sequential engine: the sweep already owns
		// the worker budget, so the two levels never multiply.
		popt := s.opt
		popt.Workers = 1
		return s.race(ctx, s.opt.Workers, popt)
	}
	for !s.settled() && ctx.Err() == nil {
		v := s.pick()
		r, p, err := s.probe(ctx, s.opt, v)
		if err != nil {
			return err
		}
		s.fold(v, r, p)
	}
	if s.decision() == Unknown {
		return ctx.Err()
	}
	return nil
}

// finish stamps a single-sweep run with the sweep's outcome.
func (s *sweep[P]) finish(err error) (*OptResult, error) {
	d, value := s.decision(), 0
	if s.best <= s.hi {
		value = s.best
	}
	if d == Feasible && s.observe != nil {
		s.observe(s.best, s.best, "proved", s.witness, true)
	}
	return s.driverRun.finish(d, value, s.bound, s.witness), err
}

// race is the executor at Workers > 1: it keeps up to workers probes
// in flight and folds each as it lands, and on return cancels and
// folds the rest, so no goroutine outlives the sweep.
func (s *sweep[P]) race(ctx context.Context, workers int, popt Options) error {
	r := &racer[P]{
		ctx:     ctx,
		opt:     popt,
		probe:   s.probe,
		results: make(chan outcome[P], workers),
		cancels: make(map[int]context.CancelFunc),
	}
	defer r.drain(s.fold)
	for !s.settled() {
		for _, v := range s.picks(workers-len(r.cancels), r.busy) {
			r.launch(v)
		}
		out := r.next()
		if out.err != nil {
			return out.err
		}
		s.fold(out.v, out.res, out.payload)
		if err := ctx.Err(); err != nil {
			return err
		}
		r.cancelWhere(func(v int) bool { return v < s.bound || v >= s.best })
	}
	return nil
}

// outcome couples a finished probe with its sweep value.
type outcome[P any] struct {
	v       int
	res     *OPPResult
	payload P
	err     error
}

// racer is the worker-pool plumbing of the racing executor: it tracks
// in-flight probes, launches them, cancels them selectively, and
// drains them.
type racer[P any] struct {
	ctx     context.Context
	opt     Options
	probe   probeFunc[P]
	results chan outcome[P]
	cancels map[int]context.CancelFunc
}

func (r *racer[P]) busy(v int) bool {
	_, ok := r.cancels[v]
	return ok
}

// launch starts the probe at v on a fresh goroutine under a child
// context, so it can be canceled individually. A panicking probe
// delivers the panic, with its stack, as the probe's error (counted
// under obs.MetricProbePanics), so the sweep fails and drains like on
// any other probe error instead of crashing the process.
func (r *racer[P]) launch(v int) {
	cctx, cancel := context.WithCancel(r.ctx)
	r.cancels[v] = cancel
	go func() {
		out := outcome[P]{v: v}
		defer func() {
			if p := recover(); p != nil {
				r.opt.Metrics.Counter(obs.MetricProbePanics).Inc()
				out.res, out.err = nil, fmt.Errorf("solver: probe at %d panicked: %v\n%s", v, p, debug.Stack())
			}
			r.results <- out
		}()
		out.res, out.payload, out.err = r.probe(cctx, r.opt, v)
	}()
}

// next blocks for the next finished probe and releases its cancel func.
func (r *racer[P]) next() outcome[P] {
	out := <-r.results
	r.cancels[out.v]()
	delete(r.cancels, out.v)
	return out
}

// cancelWhere cancels every in-flight probe whose value satisfies the
// predicate. The probes still deliver (partial-effort) results.
func (r *racer[P]) cancelWhere(pred func(v int) bool) {
	for v, cancel := range r.cancels {
		if pred(v) {
			cancel()
		}
	}
}

// drain cancels and collects every probe still in flight and folds
// those that returned a result.
func (r *racer[P]) drain(fold func(int, *OPPResult, P)) {
	for _, cancel := range r.cancels {
		cancel()
	}
	for len(r.cancels) > 0 {
		if out := r.next(); out.err == nil {
			fold(out.v, out.res, out.payload)
		}
	}
}
