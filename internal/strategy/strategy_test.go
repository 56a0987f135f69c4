package strategy

import (
	"context"
	"slices"
	"sync"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// twoBlocks is a minimal instance with one precedence arc: two 2×2×2
// blocks where task 1 must start after task 0 finishes.
func twoBlocks(t *testing.T) (*model.Instance, *model.Order) {
	t.Helper()
	in := &model.Instance{
		Name:  "two-blocks",
		Tasks: []model.Task{{W: 2, H: 2, Dur: 2}, {W: 2, H: 2, Dur: 2}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	return in, order
}

func testEnv() *Env {
	return &Env{
		SearchOpts: func(ctx context.Context) core.Options { return core.Options{Ctx: ctx} },
		Inc:        NewIncumbents(),
	}
}

// mustParse resolves a preset name that the test knows is valid.
func mustParse(t *testing.T, name string, env *Env) *Pipeline {
	t.Helper()
	pl, err := Parse(name, env)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestValidAndNames(t *testing.T) {
	for _, name := range []string{"", NameStaged, NamePortfolio, NameAnneal} {
		if !Valid(name) {
			t.Errorf("Valid(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"greedy", "Staged", "portfolio ", "race", "Anneal"} {
		if Valid(name) {
			t.Errorf("Valid(%q) = true, want false", name)
		}
	}
	names := Names()
	if len(names) != 3 || names[0] != NameStaged || names[1] != NamePortfolio || names[2] != NameAnneal {
		t.Errorf("Names() = %v", names)
	}
}

func TestParse(t *testing.T) {
	env := testEnv()
	for name, want := range map[string]string{
		"":            NameStaged,
		NameStaged:    NameStaged,
		NamePortfolio: NamePortfolio,
		NameAnneal:    NameAnneal,
	} {
		s, err := Parse(name, env)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if s.name != want {
			t.Errorf("Parse(%q) runs preset %q, want %q", name, s.name, want)
		}
	}
	if _, err := Parse("bogus", env); err == nil {
		t.Error("Parse(bogus) succeeded, want error")
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Unknown:     "unknown",
		Feasible:    "feasible",
		Infeasible:  "infeasible",
		Decision(7): "unknown",
	} {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestIncumbentsMemo(t *testing.T) {
	in, order := twoBlocks(t)
	s := NewIncumbents()

	p1, mk1, ok1, hit1 := s.MinMakespan(in, 4, 4, order)
	if !ok1 || hit1 {
		t.Fatalf("first lookup: ok=%v hit=%v, want ok=true hit=false", ok1, hit1)
	}
	p2, mk2, ok2, hit2 := s.MinMakespan(in, 4, 4, order)
	if !ok2 || !hit2 {
		t.Fatalf("second lookup: ok=%v hit=%v, want ok=true hit=true", ok2, hit2)
	}
	if p1 != p2 || mk1 != mk2 {
		t.Errorf("memo returned a different entry: %p/%d vs %p/%d", p1, mk1, p2, mk2)
	}
	if mk1 != 4 { // serialized: 2+2 cycles
		t.Errorf("min makespan = %d, want 4", mk1)
	}
	// A different footprint is a fresh computation.
	if _, _, _, hit := s.MinMakespan(in, 5, 5, order); hit {
		t.Error("distinct footprint served from memo")
	}
	computes, hits := s.HeurStats()
	if computes != 2 || hits != 1 {
		t.Errorf("HeurStats() = (%d, %d), want (2, 1)", computes, hits)
	}
	// A chip too small for the tasks reports ok=false, memoized too.
	if _, _, ok, _ := s.MinMakespan(in, 1, 1, order); ok {
		t.Error("1×1 chip reported feasible heuristic placement")
	}
	if _, _, ok, hit := s.MinMakespan(in, 1, 1, order); ok || !hit {
		t.Errorf("negative entry not memoized: ok=%v hit=%v", ok, hit)
	}
}

func TestIncumbentsWitnessDominance(t *testing.T) {
	in, _ := twoBlocks(t)
	s := NewIncumbents()

	if _, _, ok := s.Dominating(model.Container{W: 10, H: 10, T: 10}); ok {
		t.Fatal("empty store produced a witness")
	}
	// Serialized placement: bounding box 2×2, makespan 4.
	serial := &model.Placement{X: []int{0, 0}, Y: []int{0, 0}, S: []int{0, 2}}
	s.RecordWitness(in, serial, "heuristic")
	if n := s.Witnesses(); n != 1 {
		t.Fatalf("Witnesses() = %d, want 1", n)
	}
	if _, src, ok := s.Dominating(model.Container{W: 2, H: 2, T: 4}); !ok || src != "heuristic" {
		t.Errorf("exact-fit lookup: ok=%v src=%q", ok, src)
	}
	if _, _, ok := s.Dominating(model.Container{W: 3, H: 3, T: 5}); !ok {
		t.Error("strictly larger container not answered")
	}
	if _, _, ok := s.Dominating(model.Container{W: 2, H: 2, T: 3}); ok {
		t.Error("tighter horizon answered by a slower witness")
	}
	if _, _, ok := s.Dominating(model.Container{W: 1, H: 2, T: 4}); ok {
		t.Error("narrower chip answered by a wider witness")
	}

	// A wider-but-faster placement is incomparable: both stay.
	wide := &model.Placement{X: []int{0, 2}, Y: []int{0, 0}, S: []int{0, 1}}
	s.RecordWitness(in, wide, "search")
	if n := s.Witnesses(); n != 2 {
		t.Fatalf("Witnesses() = %d after incomparable insert, want 2", n)
	}
	// A witness dominated by a stored one is not inserted...
	worse := &model.Placement{X: []int{0, 0}, Y: []int{0, 0}, S: []int{0, 3}}
	s.RecordWitness(in, worse, "search")
	if n := s.Witnesses(); n != 2 {
		t.Fatalf("Witnesses() = %d after dominated insert, want 2", n)
	}
	// ...and one dominating both evicts them.
	best := &model.Placement{X: []int{0, 0}, Y: []int{0, 0}, S: []int{0, 0}}
	// (not a valid schedule for the instance, but the store only indexes
	// bounding boxes; validity is the recorder's concern)
	s.RecordWitness(in, best, "search")
	if n := s.Witnesses(); n != 1 {
		t.Fatalf("Witnesses() = %d after dominating insert, want 1", n)
	}
	if p, _, ok := s.Dominating(model.Container{W: 2, H: 2, T: 2}); !ok || p != best {
		t.Errorf("dominating insert not served: ok=%v", ok)
	}
}

func TestIncumbentsConcurrent(t *testing.T) {
	in, order := twoBlocks(t)
	s := NewIncumbents()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := 2 + (g+i)%4
				s.MinMakespan(in, w, w, order)
				s.RecordWitness(in, &model.Placement{
					X: []int{0, 0}, Y: []int{0, 0}, S: []int{0, i % 5},
				}, "search")
				s.Dominating(model.Container{W: w, H: w, T: 4})
			}
		}(g)
	}
	wg.Wait()
	if n := s.Witnesses(); n < 1 {
		t.Errorf("Witnesses() = %d, want ≥ 1", n)
	}
}

func TestStagedAndPortfolioAgree(t *testing.T) {
	in, order := twoBlocks(t)
	cases := []struct {
		c    model.Container
		want Decision
	}{
		{model.Container{W: 2, H: 2, T: 4}, Feasible},
		{model.Container{W: 4, H: 4, T: 3}, Infeasible}, // critical path is 4
		{model.Container{W: 1, H: 1, T: 10}, Infeasible},
	}
	for _, tc := range cases {
		p := &Problem{In: in, C: tc.c, Order: order}
		rs, err := mustParse(t, NameStaged, testEnv()).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := mustParse(t, NamePortfolio, testEnv()).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Decision != tc.want || rp.Decision != tc.want {
			t.Errorf("container %+v: staged=%v portfolio=%v, want %v",
				tc.c, rs.Decision, rp.Decision, tc.want)
		}
		if rs.Decision == Feasible {
			if err := rs.Placement.Verify(in, tc.c, order); err != nil {
				t.Errorf("staged witness invalid: %v", err)
			}
			if err := rp.Placement.Verify(in, tc.c, order); err != nil {
				t.Errorf("portfolio witness invalid: %v", err)
			}
		}
	}
}

func TestPortfolioIncumbentDominance(t *testing.T) {
	in, order := twoBlocks(t)
	env := testEnv()
	port := mustParse(t, NamePortfolio, env)

	c := model.Container{W: 2, H: 2, T: 4}
	r1, err := port.Solve(context.Background(), &Problem{In: in, C: c, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Decision != Feasible || r1.DecidedBy != "heuristic" {
		t.Fatalf("first solve: %v by %q", r1.Decision, r1.DecidedBy)
	}
	// A looser container is dominated by the recorded witness.
	loose := model.Container{W: 3, H: 3, T: 6}
	r2, err := port.Solve(context.Background(), &Problem{In: in, C: loose, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Decision != Feasible || r2.DecidedBy != "incumbent" {
		t.Fatalf("dominated solve: %v by %q, want feasible by incumbent", r2.Decision, r2.DecidedBy)
	}
	if r2.Stats.Nodes != 0 {
		t.Errorf("incumbent answer spent %d search nodes", r2.Stats.Nodes)
	}
	if err := r2.Placement.Verify(in, loose, order); err != nil {
		t.Errorf("incumbent witness invalid: %v", err)
	}
	// Mutating the returned placement must not corrupt the store.
	r2.Placement.S[1] = 99
	r3, err := port.Solve(context.Background(), &Problem{In: in, C: loose, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.Placement.Verify(in, loose, order); err != nil {
		t.Errorf("store witness was aliased by a caller: %v", err)
	}
}

// TestPortfolioRaceDecides checks the portfolio preset's answers when
// the exact search alone must decide (bounds and heuristic skipped),
// and when the bounds refute the probe before the search runs.
func TestPortfolioRaceDecides(t *testing.T) {
	in, order := twoBlocks(t)
	env := testEnv()
	env.SkipBounds = true
	env.SkipHeuristic = true
	port := mustParse(t, NamePortfolio, env)
	feas, err := port.Solve(context.Background(), &Problem{In: in, C: model.Container{W: 2, H: 2, T: 4}, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if feas.Decision != Feasible || feas.DecidedBy != "search" {
		t.Fatalf("feasible probe: %v by %q", feas.Decision, feas.DecidedBy)
	}
	if err := feas.Placement.Verify(in, model.Container{W: 2, H: 2, T: 4}, order); err != nil {
		t.Errorf("search witness invalid: %v", err)
	}
	inf, err := port.Solve(context.Background(), &Problem{In: in, C: model.Container{W: 4, H: 4, T: 3}, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	// T=3 < critical path, and with the bounds skipped only the search
	// can refute it.
	if inf.Decision != Infeasible || inf.DecidedBy != "search" {
		t.Fatalf("infeasible probe: %v by %q", inf.Decision, inf.DecidedBy)
	}

	// With the bounds active, a bounds-refutable probe is decided
	// without the search.
	r, err := mustParse(t, NamePortfolio, testEnv()).Solve(context.Background(), &Problem{In: in, C: model.Container{W: 4, H: 4, T: 2}, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("bound refutation: %v by %q", r.Decision, r.DecidedBy)
	}
}

// TestPortfolioRaceCanceled checks that a dead context ends a portfolio
// probe before any tier, a stored witness that dominates it included.
func TestPortfolioRaceCanceled(t *testing.T) {
	in, order := twoBlocks(t)
	c := model.Container{W: 2, H: 2, T: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := mustParse(t, NamePortfolio, testEnv()).Solve(ctx, &Problem{In: in, C: c, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Unknown || r.DecidedBy != "canceled" {
		t.Fatalf("pre-canceled solve: %v by %q", r.Decision, r.DecidedBy)
	}

	port := mustParse(t, NamePortfolio, testEnv())
	if r, err := port.Solve(context.Background(), &Problem{In: in, C: c, Order: order}); err != nil || r.Decision != Feasible {
		t.Fatalf("seeding solve: %v, %v", r, err)
	}
	r, err = port.Solve(ctx, &Problem{In: in, C: c, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Unknown || r.DecidedBy != "canceled" {
		t.Fatalf("pre-canceled solve with a stored witness: %v by %q", r.Decision, r.DecidedBy)
	}
}

func TestBuildProblemShapes(t *testing.T) {
	in, order := twoBlocks(t)
	c := model.Container{W: 4, H: 4, T: 6}
	free := BuildProblem(in, c, order, nil)
	if len(free.Dims) != 3 || !free.Dims[2].Ordered {
		t.Fatalf("free problem dims = %d (time ordered=%v)", len(free.Dims), free.Dims[2].Ordered)
	}
	if len(free.Seeds) == 0 {
		t.Error("precedence closure produced no seed arcs")
	}
	fixed := BuildProblem(in, c, order, []int{0, 2})
	if len(fixed.Fixed) == 0 && len(fixed.Seeds) == 0 {
		t.Error("fixed-starts problem carries no schedule structure")
	}
}

// TestFixedScheduleStages: every preset answers a fixed-schedule
// question through the same stages — a dead context before any stage,
// stage 1's slice bounds, stage 2's fixed-start placer, then the
// search — with the DecidedBy strings and counters of the 3D pipeline,
// and honours SkipBounds and SkipHeuristic.
func TestFixedScheduleStages(t *testing.T) {
	de := bench.DE()
	order, err := de.Order()
	if err != nil {
		t.Fatal(err)
	}
	starts := []int{0, 0, 2, 4, 5, 0, 2, 0, 2, 0, 1}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name       string
		side       int
		ctx        context.Context
		skipBounds bool
		skipHeur   bool
		decision   Decision
		decidedBy  string
		counter    string
	}{
		{"bound", 32, context.Background(), false, false, Infeasible, "bound: slice area", "opp.decided_by.bounds"},
		{"heuristic", 33, context.Background(), false, false, Feasible, "heuristic", "opp.decided_by.heuristic"},
		{"search refutes", 32, context.Background(), true, true, Infeasible, "search", "opp.decided_by.search"},
		{"search places", 33, context.Background(), true, true, Feasible, "search", "opp.decided_by.search"},
		{"placer without bounds", 33, context.Background(), true, false, Feasible, "heuristic", "opp.decided_by.heuristic"},
		{"dead context", 32, dead, false, false, Unknown, "canceled", "opp.decided_by.canceled"},
	}
	for _, name := range Names() {
		for _, tc := range cases {
			env := testEnv()
			env.Metrics = obs.NewRegistry()
			env.SkipBounds, env.SkipHeuristic = tc.skipBounds, tc.skipHeur
			s := mustParse(t, name, env)
			c := model.Container{W: tc.side, H: tc.side, T: 6}
			res, err := s.Solve(tc.ctx, &Problem{In: de, C: c, Order: order, FixedStarts: starts})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.name, err)
			}
			if res.Decision != tc.decision || res.DecidedBy != tc.decidedBy {
				t.Fatalf("%s/%s: %v by %q, want %v by %q", name, tc.name, res.Decision, res.DecidedBy, tc.decision, tc.decidedBy)
			}
			if n := env.Metrics.Snapshot()[tc.counter]; n != 1 {
				t.Fatalf("%s/%s: %s = %d, want 1", name, tc.name, tc.counter, n)
			}
			if res.Decision == Feasible {
				if err := res.Placement.Verify(de, c, order); err != nil || !slices.Equal(res.Placement.S, starts) {
					t.Fatalf("%s/%s: witness invalid (%v) or starts moved", name, tc.name, err)
				}
			}
		}
	}
}
