package strategy

import (
	"context"
	"testing"
	"time"

	"fpga3d/internal/core"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// fallbackProbe is the search-frontier question rand14.148 at its
// optimum T=10 on 6×6: greedy needs 13 cycles, the bounds prove 9, the
// engine runs out of a 2 000-node budget at T=10, and one annealing
// walk reaches 10.
func fallbackProbe(t *testing.T) *Problem {
	t.Helper()
	in := frontierDraw(148)
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{In: in, C: model.Container{W: 6, H: 6, T: 10}, Order: order}
}

// limitedEnv returns an Env whose engine runs with the given node
// budget, deadline (zero for none) and progress hook, with the time
// axis Overlap first as the solver's default options build it.
func limitedEnv(nodeLimit int64, deadline time.Time, progress obs.ProgressFunc) *Env {
	return &Env{
		SearchOpts: func(ctx context.Context) core.Options {
			return core.Options{Ctx: ctx, NodeLimit: nodeLimit, Deadline: deadline, Progress: progress, TimeOverlapFirst: true}
		},
		Inc: NewIncumbents(),
	}
}

// TestAnnealFallbackDecidesNodeLimitedProbe checks that a probe whose
// search stops at its node limit, on a chip the greedy placer fits,
// is settled by the annealer after the search under every preset that
// does not anneal first, with a verified witness, and that the anneal
// preset settles it ahead of the search as before.
func TestAnnealFallbackDecidesNodeLimitedProbe(t *testing.T) {
	p := fallbackProbe(t)
	for _, name := range Names() {
		res, err := mustParse(t, name, limitedEnv(2_000, time.Time{}, nil)).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision != Feasible || res.DecidedBy != "anneal" {
			t.Fatalf("%s: %v by %q, want feasible by anneal", name, res.Decision, res.DecidedBy)
		}
		if err := res.Placement.Verify(p.In, p.C, p.Order); err != nil {
			t.Fatalf("%s: witness invalid: %v", name, err)
		}
		if res.Stages.Anneal <= 0 {
			t.Errorf("%s: Stages.Anneal = %v, want the walk's time", name, res.Stages.Anneal)
		}
		wantNodes := int64(2_000)
		if name == NameAnneal {
			wantNodes = 0
		}
		if res.Stats.Nodes != wantNodes {
			t.Errorf("%s: %d search nodes, want %d", name, res.Stats.Nodes, wantNodes)
		}
	}
}

// TestAnnealFallbackStaysOut checks that the same probe stays Unknown,
// with no anneal stage, when the search stopped for anything but a
// node limit reached after at least one walk's proposals, or when
// stage 2 did not run.
func TestAnnealFallbackStaysOut(t *testing.T) {
	p := fallbackProbe(t)
	// late reports a search past a walk's proposals in nodes; the
	// deadline and cancellation cases stop the search there from its
	// progress hook, so only the kind of stop keeps the fallback out.
	late := func(snap obs.Snapshot) bool { return snap.Nodes > heur.DefaultAnnealProposals }
	cases := []struct {
		name  string
		by    string
		spent bool // the search spent more than a walk's proposals
		run   func() (*Result, error)
	}{
		{"node limit 1", "limit", false, func() (*Result, error) {
			return mustParse(t, NameStaged, limitedEnv(1, time.Time{}, nil)).Solve(context.Background(), p)
		}},
		{"time limit", "limit", true, func() (*Result, error) {
			// A slow run (the race detector) may pass the deadline
			// before the search spends a walk's proposals; retry with a
			// longer one until it does not.
			for d := 20 * time.Millisecond; ; d *= 4 {
				deadline := time.Now().Add(d)
				wait := func(snap obs.Snapshot) {
					if late(snap) {
						time.Sleep(time.Until(deadline) + time.Millisecond)
					}
				}
				res, err := mustParse(t, NameStaged, limitedEnv(2_000, deadline, wait)).Solve(context.Background(), p)
				if err != nil || res.Stats.Nodes > heur.DefaultAnnealProposals || d > 5*time.Second {
					return res, err
				}
			}
		}},
		{"canceled mid-search", "canceled", true, func() (*Result, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stop := func(snap obs.Snapshot) {
				if late(snap) {
					cancel()
				}
			}
			return mustParse(t, NameStaged, limitedEnv(2_000, time.Time{}, stop)).Solve(ctx, p)
		}},
		{"canceled before", "canceled", false, func() (*Result, error) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return mustParse(t, NameStaged, limitedEnv(2_000, time.Time{}, nil)).Solve(ctx, p)
		}},
		{"skip heuristic", "limit", true, func() (*Result, error) {
			// Without the greedy schedule's hint the engine finds the
			// witness at node 1 319, so a budget between a walk's
			// proposals and that stops it at its node limit.
			env := limitedEnv(1_200, time.Time{}, nil)
			env.SkipHeuristic = true
			return mustParse(t, NameStaged, env).Solve(context.Background(), p)
		}},
	}
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Decision != Unknown || res.DecidedBy != c.by || res.Stages.Anneal != 0 {
			t.Errorf("%s: %v by %q with anneal stage %v, want unknown by %q without one",
				c.name, res.Decision, res.DecidedBy, res.Stages.Anneal, c.by)
		}
		if spent := res.Stats.Nodes > heur.DefaultAnnealProposals; spent != c.spent {
			t.Errorf("%s: search stopped after %d nodes", c.name, res.Stats.Nodes)
		}
	}
}
