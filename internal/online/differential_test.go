package online

import (
	"context"
	"fmt"
	"testing"

	"fpga3d/internal/model"
	"fpga3d/internal/solver"
	"fpga3d/internal/strategy"
)

// staticFeasible answers "could this module start right now?" from
// scratch: it rebuilds the equivalent fixed-schedule instance from the
// session snapshot alone and runs the exact solver with no limits —
// the ground truth the incremental admission ladder must agree with.
func staticFeasible(t *testing.T, snap *Snapshot, ev Event) bool {
	t.Helper()
	in := &model.Instance{Name: "differential"}
	var starts []int
	T := ev.Dur
	for i, r := range snap.Residents {
		st, dur := 0, r.Finish()-snap.Now
		if r.Start > snap.Now {
			st, dur = r.Start-snap.Now, r.Dur
		}
		in.Tasks = append(in.Tasks, model.Task{Name: fmt.Sprintf("r%d", i), W: r.W, H: r.H, Dur: dur})
		starts = append(starts, st)
		if st+dur > T {
			T = st + dur
		}
	}
	in.Tasks = append(in.Tasks, model.Task{Name: "cand", W: ev.W, H: ev.H, Dur: ev.Dur})
	starts = append(starts, 0)
	res, err := solver.FeasibleFixedScheduleCtx(context.Background(), in, model.Container{W: snap.W, H: snap.H, T: T}, starts, solver.Options{})
	if err != nil {
		t.Fatalf("static solve: %v", err)
	}
	if res.Decision == strategy.Unknown {
		t.Fatal("unlimited static solve answered Unknown")
	}
	return res.Decision == strategy.Feasible
}

// TestDifferentialAdmitMatchesStatic drives ~100 random event scripts
// through sessions and checks, for every single arrival, that the
// incremental answer (any ladder tier) equals an unlimited from-scratch
// FeasibleFixedSchedule solve on the equivalent static instance — and
// that every defragmentation plan handed out replays cleanly through
// fpga.Simulate.
func TestDifferentialAdmitMatchesStatic(t *testing.T) {
	scripts := 100
	if testing.Short() {
		scripts = 15
	}
	for seed := 0; seed < scripts; seed++ {
		// DeadlineSlack 0 makes every arrival admit-now, the shape where
		// "admitted" and "static instance feasible" must coincide
		// exactly. Half the scripts interleave proactive defrags to
		// diversify the layouts the admissions run against.
		defragEvery := 0
		if seed%2 == 0 {
			defragEvery = 5
		}
		sc := Generate(GenParams{
			Seed: int64(seed), W: 10, H: 10,
			Events: 16, MaxSize: 4, MaxDur: 10, MaxGap: 3,
			DepartFrac: 0.35, DefragEvery: defragEvery,
		})
		s := mustSession(t, Config{W: 10, H: 10, MaxMoves: 1000})
		live := make(map[string]int)
		for evIdx, ev := range sc.Events {
			tag := fmt.Sprintf("seed %d event %d (%s %q at %d)", seed, evIdx, ev.Kind, ev.Name, ev.At)
			switch ev.Kind {
			case EventArrive:
				snap := s.State(ev.At)
				res := mustAdmit(t, s, AdmitRequest{Name: ev.Name, W: ev.W, H: ev.H, Dur: ev.Dur, At: ev.At})
				if res.Decision == DecisionUnknown {
					t.Fatalf("%s: unlimited admission answered unknown", tag)
				}
				admitted := res.Decision == DecisionPlaced || res.Decision == DecisionDefrag
				if want := staticFeasible(t, snap, ev); admitted != want {
					t.Fatalf("%s: online says admitted=%v (%s by %s), from-scratch solve says feasible=%v",
						tag, admitted, res.Decision, res.DecidedBy, want)
				}
				if admitted {
					if res.Start != ev.At {
						t.Fatalf("%s: admit-now placed at start %d", tag, res.Start)
					}
					live[ev.Name] = res.ID
				}
				if res.Plan != nil {
					if err := res.Plan.Validate(); err != nil {
						t.Fatalf("%s: defrag plan failed simulation: %v", tag, err)
					}
				}
			case EventDepart:
				if id, ok := live[ev.Name]; ok {
					delete(live, ev.Name)
					_ = s.Depart(id, ev.At) // may already have expired
				} else {
					advance(s, ev.At)
				}
			case EventDefrag:
				plan, err := s.Defrag(ev.At)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if err := plan.Validate(); err != nil {
					t.Fatalf("%s: defrag plan failed simulation: %v", tag, err)
				}
			}
		}
	}
}

// TestDifferentialReplayMatchesCounters cross-checks Replay's stats
// against the session's own counters on richer scripts. The tight 8×8
// scripts at seeds 3 and 8 ask exact probes that are near-perfect pure
// 2D packings of the chip, which a 5 000-node engine budget leaves
// open; under that budget every admission must still be decided.
func TestDifferentialReplayMatchesCounters(t *testing.T) {
	tight := GenParams{W: 8, H: 8, Events: 56, MaxSize: 4, MaxDur: 20, MaxGap: 2, DepartFrac: 0.2, DefragEvery: 10}
	tight3, tight8 := tight, tight
	tight3.Seed, tight8.Seed = 3, 8
	for _, q := range []struct {
		p   GenParams
		cfg Config
	}{
		{GenParams{Seed: 99, W: 12, H: 12, Events: 40, MaxSize: 4, MaxDur: 14, DepartFrac: 0.4, DefragEvery: 10}, Config{W: 12, H: 12, MaxMoves: 1000}},
		{tight3, Config{W: 8, H: 8, ProbeNodeLimit: 5_000, Workers: 1}},
		{tight8, Config{W: 8, H: 8, ProbeNodeLimit: 5_000, Workers: 1}},
	} {
		s := mustSession(t, q.cfg)
		stats, err := Replay(context.Background(), s, Generate(q.p), nil)
		if err != nil {
			t.Fatal(err)
		}
		c := s.Counters()
		if int64(stats.Admitted) != c.Admitted || int64(stats.Rejected) != c.Rejected {
			t.Fatalf("seed %d: replay stats %+v disagree with session counters %+v", q.p.Seed, stats, c)
		}
		if int64(stats.DefragMoves) != c.Moves {
			t.Fatalf("seed %d: replay moves %d, session moves %d", q.p.Seed, stats.DefragMoves, c.Moves)
		}
		if c.ByFreeRect+c.BySlot+c.ByCache+c.ByProbe != c.Admitted+c.Rejected {
			t.Fatalf("seed %d: tier counters don't partition the decided admissions: %+v", q.p.Seed, c)
		}
		if stats.Unknown != 0 {
			t.Fatalf("seed %d: %d admissions left unknown at a %d-node probe budget", q.p.Seed, stats.Unknown, q.cfg.ProbeNodeLimit)
		}
	}
}
