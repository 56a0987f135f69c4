package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fpga3d/internal/model"
	"fpga3d/internal/online"
)

// onlineProbeNodes is the exact-probe budget of online-churn. fpgad's
// default is unlimited, under which one tight 8×8 script did not finish
// in five minutes.
const onlineProbeNodes = 5_000

// onlineTail is the percentile online-churn reports as latency_tail_ms.
// About 1% of admissions spend 5–70 ms in exact probes while the rest
// are answered in under 0.5 ms, so p99 sits on that cliff and jumped
// between 5 and 20 ms from run to run. p99.9 lies among the long
// probes, with some 30 samples beyond it in a run.
const onlineTail = 0.999

// onlineScripts is the pinned online-churn corpus: generator settings
// and the script seeds replayed per pass. Tight 8×8 scripts dominate,
// so the slot, cache, repack and exact-probe tiers decide about 7% of
// admissions and the tail lands in the exact probes. Regenerated per
// run seed, the exact probes' cost moved a pass by far more than the
// bound, so the run seed only orders the scripts.
var onlineScripts = []struct {
	p     online.GenParams
	seeds []int64
}{
	{online.GenParams{Name: "steady", W: 16, H: 16, Events: 64, MaxSize: 5, MaxDur: 12, DepartFrac: 0.3}, []int64{1, 2}},
	{online.GenParams{Name: "churn", W: 10, H: 10, Events: 80, MaxSize: 4, MaxDur: 16, DepartFrac: 0.5, DefragEvery: 6}, []int64{1, 2}},
	{online.GenParams{Name: "deadline", W: 12, H: 12, Events: 64, MaxSize: 4, MaxDur: 10, DepartFrac: 0.3, DeadlineSlack: 6}, []int64{1, 2}},
	{online.GenParams{Name: "tight", W: 8, H: 8, Events: 56, MaxSize: 4, MaxDur: 20, MaxGap: 2, DepartFrac: 0.2, DefragEvery: 10}, []int64{1, 2, 3, 4, 5, 6, 7, 8}},
}

// onlineBench is online-churn: online.Session replays the corpus in a
// closed loop with one caller, a fresh session per script. Workers is
// 1, so every admission decision repeats exactly.
type onlineBench struct {
	scripts []*online.Script
	corrupt bool
}

func setupOnline(cfg config) (runner, error) {
	b := &onlineBench{corrupt: cfg.corrupt}
	for _, k := range onlineScripts {
		for _, seed := range k.seeds {
			p := k.p
			p.Seed = seed
			p.Name = fmt.Sprintf("%s-%d", k.p.Name, seed)
			b.scripts = append(b.scripts, online.Generate(p))
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(b.scripts), func(i, j int) { b.scripts[i], b.scripts[j] = b.scripts[j], b.scripts[i] })
	// One untimed pass as the warm-up.
	if _, err := b.run(0, nil); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *onlineBench) close() {}

// onlineTally accumulates one run.
type onlineTally struct {
	admits, decided, rejected int
	log                       passLog
	byTier                    map[string][]time.Duration
	departs, defrags          []time.Duration
	nodes, moves              int64
}

func (b *onlineBench) run(d time.Duration, rec *recorder) (*measure, error) {
	m := &measure{chk: checker{corrupt: b.corrupt}}
	t := &onlineTally{byTier: map[string][]time.Duration{}}
	dig := newPassDigest()
	g := &hostGauge{}
	start := time.Now()
	var pass time.Duration
	for n := 0; n == 0 || time.Since(start)+pass/2 < d; n++ {
		p0 := time.Now()
		for _, sc := range b.scripts {
			if err := b.replay(sc, rec, g, t, m, dig); err != nil {
				return nil, err
			}
		}
		dig.endPass(&m.chk)
		t.log.endPass()
		pass = time.Since(p0)
	}
	m.digest = dig.first
	ops, p50, tail := t.log.summary(tailWindow(onlineTail), onlineTail)
	m.e2e = map[string]float64{
		"ops_per_s":       ops,
		"latency_p50_ms":  ms(p50),
		"latency_tail_ms": ms(tail),
		"solved_frac":     ratio(float64(t.decided), float64(t.admits)),
	}
	m.notes = append(m.notes, fmt.Sprintf("%d admissions, latency_tail_ms is p%g, host factor %.3f", t.admits, onlineTail*100, g.median()))
	if rec != nil {
		m.spans = rec.snapshot()
		L := map[string]float64{
			"online.probe_nodes_per_admit":  ratio(float64(t.nodes), float64(t.admits)),
			"online.depart_us.p50":          us(percentile(t.departs, 0.50)),
			"online.defrag_us.p50":          us(percentile(t.defrags, 0.50)),
			"online.defrag_moves_per_admit": ratio(float64(t.moves), float64(t.admits)),
			"online.reject_ratio":           ratio(float64(t.rejected), float64(t.admits)),
		}
		for _, tier := range onlineTiers {
			L["online.tier_share."+tier.metric] = ratio(float64(len(t.byTier[tier.decidedBy])), float64(t.admits))
			L["online.tier_p99_us."+tier.metric] = us(percentile(t.byTier[tier.decidedBy], 0.99))
		}
		f, err := foldSpans(m.spans)
		if err != nil {
			m.chk.fail(err)
		} else {
			L["trace.self_sum_frac"] = f.layerFrac()
		}
		m.layer = L
	}
	return m, nil
}

// replay drives one script through a fresh session. Only the session
// calls are timed; checks run between them.
func (b *onlineBench) replay(sc *online.Script, rec *recorder, g *hostGauge, t *onlineTally, m *measure, dig *passDigest) error {
	sess, err := online.NewSession(online.Config{W: sc.Device.W, H: sc.Device.H, Workers: 1, ProbeNodeLimit: onlineProbeNodes})
	if err != nil {
		return err
	}
	ctx := context.Background()
	live := map[string]int{}
	for _, ev := range sc.Events {
		switch ev.Kind {
		case online.EventArrive:
			req := online.AdmitRequest{Name: ev.Name, W: ev.W, H: ev.H, Dur: ev.Dur, At: ev.At, Deadline: ev.Deadline}
			root := rec.op("op.admit")
			sp := root.child("online.admit")
			t0 := time.Now()
			res, err := sess.Admit(ctx, req)
			lat := time.Since(t0)
			sp.end()
			root.end()
			t.admits++
			t.log.op(g.scale(lat))
			if err != nil {
				m.chk.op(fmt.Errorf("%s: admit %s: %w", sc.Name, ev.Name, err))
				continue
			}
			t.byTier[res.DecidedBy] = append(t.byTier[res.DecidedBy], lat)
			t.nodes += res.Nodes
			t.moves += int64(len(res.Moves))
			if res.Decision != online.DecisionUnknown {
				t.decided++
			}
			if res.Decision == online.DecisionRejected {
				t.rejected++
			}
			if res.Decision == online.DecisionPlaced || res.Decision == online.DecisionDefrag {
				live[ev.Name] = res.ID
			}
			dig.answer("%s %s %s %s %d %d %d %d", sc.Name, ev.Name, res.Decision, res.DecidedBy, res.X, res.Y, res.Start, len(res.Moves))
			m.chk.op(checkAdmit(sc, ev, res))
		case online.EventDepart:
			id, ok := live[ev.Name]
			if !ok {
				continue
			}
			delete(live, ev.Name)
			root := rec.op("op.depart")
			sp := root.child("online.depart")
			t0 := time.Now()
			err := sess.Depart(id, ev.At)
			lat := time.Since(t0)
			sp.end()
			root.end()
			t.log.busy += g.scale(lat)
			if err == nil {
				t.departs = append(t.departs, lat)
			}
		case online.EventDefrag:
			root := rec.op("op.defrag")
			sp := root.child("online.defrag")
			t0 := time.Now()
			plan, err := sess.Defrag(ev.At)
			lat := time.Since(t0)
			sp.end()
			root.end()
			t.log.busy += g.scale(lat)
			t.defrags = append(t.defrags, lat)
			if err != nil {
				m.chk.fail(fmt.Errorf("%s: defrag at %d: %w", sc.Name, ev.At, err))
				continue
			}
			t.moves += int64(len(plan.Moves))
			if err := plan.Validate(); err != nil {
				m.chk.fail(fmt.Errorf("%s: defrag plan at %d: %w", sc.Name, ev.At, err))
			}
			if err := verifyLayout(&m.chk, sess); err != nil {
				m.chk.fail(fmt.Errorf("%s: after defrag at %d: %w", sc.Name, ev.At, err))
			}
		}
	}
	if err := verifyLayout(&m.chk, sess); err != nil {
		m.chk.fail(fmt.Errorf("%s: final layout: %w", sc.Name, err))
	}
	return nil
}

// checkAdmit checks one admission answer: the module lies on the
// device, starts inside its window, and a defrag plan replays cleanly.
func checkAdmit(sc *online.Script, ev online.Event, res *online.AdmitResult) error {
	switch res.Decision {
	case online.DecisionRejected, online.DecisionUnknown:
		return nil
	case online.DecisionPlaced, online.DecisionDefrag:
	default:
		return fmt.Errorf("%s: admit %s: unknown decision %q", sc.Name, ev.Name, res.Decision)
	}
	last := max(ev.Deadline, ev.At)
	if res.X < 0 || res.Y < 0 || res.X+ev.W > sc.Device.W || res.Y+ev.H > sc.Device.H || res.Start < ev.At || res.Start > last {
		return fmt.Errorf("%s: admit %s at (%d,%d,t%d) outside the device or its window [%d,%d]",
			sc.Name, ev.Name, res.X, res.Y, res.Start, ev.At, last)
	}
	if res.Decision == online.DecisionDefrag {
		if res.Plan == nil {
			return fmt.Errorf("%s: admit %s: defrag decision without a plan", sc.Name, ev.Name)
		}
		if err := res.Plan.Validate(); err != nil {
			return fmt.Errorf("%s: admit %s: defrag plan: %w", sc.Name, ev.Name, err)
		}
	}
	return nil
}

// verifyLayout checks a session's residents through Placement.Verify:
// no two modules share a cell at the same cycle, and all lie on the
// device.
func verifyLayout(c *checker, sess *online.Session) error {
	snap := sess.State(0) // 0 never advances the clock
	if len(snap.Residents) == 0 {
		return nil
	}
	in := &model.Instance{Name: "layout"}
	p := model.NewPlacement(len(snap.Residents))
	T := 0
	for i, r := range snap.Residents {
		in.Tasks = append(in.Tasks, model.Task{Name: r.Name, W: r.W, H: r.H, Dur: r.Dur})
		p.X[i], p.Y[i], p.S[i] = r.X, r.Y, r.Start
		T = max(T, r.Finish())
	}
	return c.verify(in, p, model.Container{W: snap.W, H: snap.H, T: T}, model.EmptyOrder(in.Durations()))
}
