package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/solver"
)

// question is one library call as a user makes it: instance JSON in,
// one solver entry point, one answer out.
type question struct {
	name string
	js   []byte // the instance as the caller holds it
	mode string // span name of the solver call: min_time, min_base, pareto
	ask  func(in *model.Instance, opt solver.Options) (*outcome, error)
	// check validates the answer (outside the timed window).
	check func(in *model.Instance, o *outcome, c *checker) error
	opt   solver.Options
}

// outcome is the part of a solver result the benchmark reads.
type outcome struct {
	decision solver.Decision
	value    int
	points   []solver.ParetoPoint
	witness  *model.Placement
	probes   int
	stats    core.Stats
	stages   solver.StageTimings
}

func fromOpt(r *solver.OptResult) *outcome {
	return &outcome{decision: r.Decision, value: r.Value, witness: r.Placement,
		probes: r.Probes, stats: r.Stats, stages: r.Stages}
}

func minTimeQ(w, h int) func(*model.Instance, solver.Options) (*outcome, error) {
	return func(in *model.Instance, opt solver.Options) (*outcome, error) {
		r, err := solver.MinTime(in, w, h, opt)
		if err != nil {
			return nil, err
		}
		return fromOpt(r), nil
	}
}

func minBaseQ(t int) func(*model.Instance, solver.Options) (*outcome, error) {
	return func(in *model.Instance, opt solver.Options) (*outcome, error) {
		r, err := solver.MinBase(in, t, opt)
		if err != nil {
			return nil, err
		}
		return fromOpt(r), nil
	}
}

func paretoQ(in *model.Instance, opt solver.Options) (*outcome, error) {
	r, err := solver.ParetoFront(in, opt)
	if err != nil {
		return nil, err
	}
	return &outcome{decision: solver.Feasible, points: r.Points, probes: r.Probes, stats: r.Stats, stages: r.Stages}, nil
}

// renderJSON renders an instance the way a caller would hold it.
func renderJSON(in *model.Instance) ([]byte, error) {
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// questionSet is a closed loop over a fixed list of questions with one
// caller. Whole passes only: a run stops starting passes once the next
// one would end past its time, so every run measures the same mix.
type questionSet struct {
	qs []question
	// tail is the tail percentile reported as latency_tail_ms: the
	// highest one with at least ten samples beyond it in a default run.
	tail float64
	// window is the fewest questions a measurement window holds (see
	// passLog.summary).
	window  int
	corrupt bool
}

func (s *questionSet) close() {}

// answerKey is what the pass digest records about an answer.
func (o *outcome) answerKey() string {
	if o.points != nil {
		return fmt.Sprint(o.points)
	}
	return fmt.Sprintf("%s %d", o.decision, o.value)
}

// totals accumulates solver-side counts over the questions of a run.
type totals struct {
	q      int
	log    passLog
	solver time.Duration // Σ solver call wall
	solved int
	probes int
	stats  core.Stats
	stages solver.StageTimings
}

func (s *questionSet) run(d time.Duration, rec *recorder) (*measure, error) {
	m := &measure{chk: checker{corrupt: s.corrupt}}
	var reg *obs.Registry
	if rec != nil {
		reg = obs.NewRegistry()
	}
	dig := newPassDigest()
	var t totals
	g := &hostGauge{}
	start := time.Now()
	var pass time.Duration
	for n := 0; n == 0 || time.Since(start)+pass/2 < d; n++ {
		p0 := time.Now()
		for i := range s.qs {
			if err := s.ask(&s.qs[i], rec, reg, g, &t, m, dig); err != nil {
				return nil, err
			}
		}
		dig.endPass(&m.chk)
		t.log.endPass()
		pass = time.Since(p0)
	}
	m.digest = dig.first
	ops, p50, tail := t.log.summary(s.window, s.tail)
	m.e2e = map[string]float64{
		"ops_per_s":       ops,
		"latency_p50_ms":  ms(p50),
		"latency_tail_ms": ms(tail),
		"solved_frac":     ratio(float64(t.solved), float64(t.q)),
	}
	m.notes = append(m.notes, fmt.Sprintf("%d questions, latency_tail_ms is p%g, host factor %.3f", t.q, s.tail*100, g.median()))
	if rec != nil {
		m.spans = rec.snapshot()
		s.layers(m, &t, reg)
	}
	return m, nil
}

// ask runs one question: decode and solve inside the timed window,
// checks outside it.
func (s *questionSet) ask(q *question, rec *recorder, reg *obs.Registry, g *hostGauge, t *totals, m *measure, dig *passDigest) error {
	opt := q.opt
	opt.Metrics = reg
	root := rec.op("op." + q.name)
	t0 := time.Now()
	sp := root.child("model.decode")
	in, err := model.ReadInstance(bytes.NewReader(q.js))
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: decoding: %w", q.name, err)
	}
	sp = root.child("solver." + q.mode)
	s0 := time.Now()
	o, err := q.ask(in, opt)
	s1 := time.Now()
	if o != nil && sp != nil {
		recordStages(sp, s0, s1, o.stages)
	}
	sp.end()
	root.end()
	t.q++
	t.log.op(g.scale(s1.Sub(t0)))
	t.solver += s1.Sub(s0)
	if err != nil {
		m.chk.op(fmt.Errorf("%s: %w", q.name, err))
		return nil
	}
	t.probes += o.probes
	t.stats.Add(o.stats)
	t.stages.Add(o.stages)
	if o.decision == solver.Feasible {
		t.solved++
	}
	dig.answer("%s %s", q.name, o.answerKey())

	cs := rec.op("check")
	sp = cs.child("model.verify")
	err = q.check(in, o, &m.chk)
	sp.end()
	m.chk.op(err)
	if cs != nil {
		// The model-layer calls the solver makes internally, timed at
		// the same boundary for the per-layer table.
		sp = cs.child("model.validate")
		_ = in.Validate() // already validated by the solver call
		sp.end()
		sp = cs.child("model.order")
		_, _ = in.Order()
		sp.end()
		sp = cs.child("model.hash")
		_ = in.CanonicalHash()
		sp.end()
		cs.end()
	}
	return nil
}

// recordStages adds the solver's stage split (Result.Stages, durations
// without start times) as child spans of sp, laid end to end from the
// call's start. Under sweep racing, probes overlap and the stages can
// sum to more than the call's wall time; they are then scaled to share
// it in proportion.
func recordStages(sp *tspan, from, to time.Time, st solver.StageTimings) {
	names := []string{"bounds", "heur.greedy", "heur.anneal", "core.search"}
	ds := []time.Duration{st.Bounds, st.Heuristic, st.Anneal, st.Search}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	scale := 1.0
	if wall := to.Sub(from); sum > wall {
		scale = float64(wall) / float64(sum)
	}
	at := from
	for i, d := range ds {
		at = sp.record(names[i], at, time.Duration(float64(d)*scale))
	}
}

// layers derives the per-layer metrics of a traced run.
func (s *questionSet) layers(m *measure, t *totals, reg *obs.Registry) {
	f, err := foldSpans(m.spans)
	if err != nil {
		m.chk.fail(err)
		return
	}
	q := float64(t.q)
	per := func(name string) float64 { return us(f.total[name]) / float64(max(f.calls[name], 1)) }
	snap := reg.Snapshot()
	calls := float64(snap["opp.calls"])
	stageSum := t.stages.Bounds + t.stages.Heuristic + t.stages.Anneal + t.stages.Search
	// The driver's own time is the solver call's self time, less the
	// validation and ordering it does internally. Under sweep racing the
	// stage spans fill the call (see recordStages), leaving none.
	internal := time.Duration(q * (per("model.validate") + per("model.order")) * float64(time.Microsecond))
	var driver time.Duration
	for name, d := range f.self {
		if strings.HasPrefix(name, "solver.") {
			driver += d
		}
	}
	st := t.stats
	L := map[string]float64{
		"model.decode_us":   per("model.decode"),
		"model.validate_us": per("model.validate"),
		"model.order_us":    per("model.order"),
		"model.hash_us":     per("model.hash"),
		"model.verify_us":   per("model.verify"),

		"bounds.ms_per_q":               ratio(ms(t.stages.Bounds), q),
		"bounds.decided_frac":           ratio(float64(snap["opp.decided_by.bounds"]), calls),
		"heur.greedy_ms_per_q":          ratio(ms(t.stages.Heuristic), q),
		"heur.anneal_ms_per_q":          ratio(ms(t.stages.Anneal), q),
		"heur.decided_frac":             ratio(float64(snap["opp.decided_by.heuristic"]+snap["opp.decided_by.anneal"]), calls),
		"strategy.incumbent_hits_per_q": ratio(float64(snap[obs.MetricStrategyIncumbentHits]), q),
		"strategy.heur_memo_hit_ratio": ratio(float64(snap[obs.MetricStrategyHeurHits]),
			float64(snap[obs.MetricStrategyHeurHits]+snap[obs.MetricStrategyHeurComputes])),

		"solver.probes_per_q":         ratio(float64(t.probes), q),
		"solver.driver_self_ms_per_q": ratio(ms(max(0, driver-internal)), q),
		"solver.stage_sum_frac":       ratio(float64(stageSum), float64(t.solver)),

		"core.nodes_per_q":       ratio(float64(st.Nodes), q),
		"core.props_per_q":       ratio(float64(st.Propagations), q),
		"core.search_ms_per_q":   ratio(ms(t.stages.Search), q),
		"core.nodes_per_s":       ratio(float64(st.Nodes), t.stages.Search.Seconds()),
		"core.props_per_node":    ratio(float64(st.Propagations), float64(st.Nodes)),
		"core.leaf_accept_ratio": ratio(float64(st.Leaves-st.LeafRejects), float64(st.Leaves)),
		"core.steals_per_q":      ratio(float64(st.Steals), q),
		"trace.self_sum_frac":    f.layerFrac(),
	}
	for rule, n := range st.ConflictsByRule() {
		L["core.conflicts_per_q."+rule] = ratio(float64(n), q)
	}
	m.layer = L
	if err := f.checkSum(); err != nil {
		m.chk.fail(err)
	}
}
