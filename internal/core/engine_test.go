package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// prob2D builds a simple 2-box problem for state-machinery tests.
func prob(n int, caps [3]int, sizes func(b int) [3]int, ordered bool) *Problem {
	p := &Problem{N: n}
	for d := 0; d < 3; d++ {
		dim := Dim{Cap: caps[d], Sizes: make([]int, n), Ordered: d == 2 && ordered}
		for b := 0; b < n; b++ {
			dim.Sizes[b] = sizes(b)[d]
		}
		p.Dims = append(p.Dims, dim)
	}
	return p
}

func uniformSizes(w, h, t int) func(int) [3]int {
	return func(int) [3]int { return [3]int{w, h, t} }
}

func TestProblemValidate(t *testing.T) {
	good := prob(2, [3]int{4, 4, 4}, uniformSizes(2, 2, 2), true)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Problem)
	}{
		{"no boxes", func(p *Problem) { p.N = 0 }},
		{"one dim", func(p *Problem) { p.Dims = p.Dims[:1] }},
		{"size count", func(p *Problem) { p.Dims[0].Sizes = p.Dims[0].Sizes[:1] }},
		{"zero cap", func(p *Problem) { p.Dims[1].Cap = 0 }},
		{"zero size", func(p *Problem) { p.Dims[0].Sizes[0] = 0 }},
		{"oversize box", func(p *Problem) { p.Dims[0].Sizes[0] = 9 }},
		{"seed on unordered dim", func(p *Problem) { p.Seeds = []SeedArc{{Dim: 0, From: 0, To: 1}} }},
		{"seed self", func(p *Problem) { p.Seeds = []SeedArc{{Dim: 2, From: 1, To: 1}} }},
		{"seed out of range", func(p *Problem) { p.Seeds = []SeedArc{{Dim: 2, From: 0, To: 5}} }},
		{"fixed unknown state", func(p *Problem) { p.Fixed = []FixedEdge{{Dim: 0, U: 0, V: 1, State: Unknown}} }},
		{"fixed self", func(p *Problem) { p.Fixed = []FixedEdge{{Dim: 0, U: 1, V: 1, State: Overlap}} }},
		{"fixed bad dim", func(p *Problem) { p.Fixed = []FixedEdge{{Dim: 7, U: 0, V: 1, State: Overlap}} }},
	}
	for _, tc := range cases {
		p := prob(2, [3]int{4, 4, 4}, uniformSizes(2, 2, 2), true)
		tc.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusFeasible:   "feasible",
		StatusInfeasible: "infeasible",
		StatusNodeLimit:  "node-limit",
		StatusTimeLimit:  "time-limit",
		Status(42):       "status(42)",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q", int(s), s.String())
		}
	}
	if !StatusFeasible.Decided() || !StatusInfeasible.Decided() || StatusNodeLimit.Decided() {
		t.Fatal("Decided wrong")
	}
	for s, want := range map[EdgeState]string{Unknown: "unknown", Overlap: "overlap", Disjoint: "disjoint"} {
		if s.String() != want {
			t.Errorf("EdgeState %d = %q", s, s.String())
		}
	}
}

// TestTrailUndo: applying random decisions and undoing restores every
// piece of engine state exactly.
func TestTrailUndo(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		p := prob(n, [3]int{10, 10, 10}, func(b int) [3]int {
			return [3]int{1 + b%3, 1 + b%2, 1 + b%4}
		}, true)
		e := newEngine(p, Options{})

		snapshot := func() ([]EdgeState, []OrientVal) {
			var st []EdgeState
			var or []OrientVal
			for d := 0; d < e.nd; d++ {
				st = append(st, e.state[d]...)
				if e.orient[d] != nil {
					or = append(or, e.orient[d]...)
				}
			}
			return st, or
		}
		st0, or0 := snapshot()
		unk0 := append([]int(nil), e.unknown...)

		m := e.mark()
		for i := 0; i < 10; i++ {
			d := rng.Intn(e.nd)
			pr := rng.Intn(e.npairs)
			if rng.Intn(2) == 0 {
				e.setState(d, pr, EdgeState(1+rng.Intn(2)), confSize)
			} else if e.orient[2] != nil {
				u, v := int(e.pairU[pr]), int(e.pairV[pr])
				e.setBefore(2, u, v, confOrient)
			}
			e.propagate()
			if e.conflict != noConflict {
				break
			}
		}
		e.undoTo(m)

		st1, or1 := snapshot()
		for i := range st0 {
			if st0[i] != st1[i] {
				return false
			}
		}
		for i := range or0 {
			if or0[i] != or1[i] {
				return false
			}
		}
		for d := range unk0 {
			if unk0[d] != e.unknown[d] {
				return false
			}
		}
		// Adjacency bitsets restored too.
		for d := 0; d < e.nd; d++ {
			for v := 0; v < e.n; v++ {
				if !e.ovAdj[d][v].Empty() || !e.disAdj[d][v].Empty() {
					return false
				}
			}
		}
		return e.conflict == noConflict && len(e.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestC3Forcing(t *testing.T) {
	p := prob(2, [3]int{10, 10, 10}, uniformSizes(2, 2, 2), false)
	e := newEngine(p, Options{})
	pr := e.pidx[0][1]
	e.setState(0, pr, Overlap, confSize)
	e.setState(1, pr, Overlap, confSize)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatalf("unexpected conflict")
	}
	if e.state[2][pr] != Disjoint {
		t.Fatal("C3 did not force the time dimension disjoint")
	}
	if e.stats.ForcedC3 == 0 {
		t.Fatal("ForcedC3 not counted")
	}
}

func TestC3Conflict(t *testing.T) {
	p := prob(2, [3]int{10, 10, 10}, uniformSizes(2, 2, 2), false)
	e := newEngine(p, Options{})
	pr := e.pidx[0][1]
	e.setState(2, pr, Overlap, confSize)
	e.setState(0, pr, Overlap, confSize)
	e.setState(1, pr, Overlap, confSize)
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("triple overlap not detected")
	}
}

func TestSetStateContradictionConflicts(t *testing.T) {
	p := prob(2, [3]int{10, 10, 10}, uniformSizes(2, 2, 2), false)
	e := newEngine(p, Options{})
	pr := e.pidx[0][1]
	e.setState(0, pr, Overlap, confSize)
	e.setState(0, pr, Overlap, confSize) // same value: no-op
	if e.conflict != noConflict {
		t.Fatal("idempotent set conflicted")
	}
	e.setState(0, pr, Disjoint, confClique)
	if e.conflict == noConflict {
		t.Fatal("contradictory set accepted")
	}
	if e.stats.ConflictClique != 1 {
		t.Fatal("conflict not attributed to the given rule")
	}
}

func TestSymmetryDetection(t *testing.T) {
	// Boxes 0 and 1 identical; box 2 differs in one dimension.
	p := prob(3, [3]int{10, 10, 10}, func(b int) [3]int {
		if b == 2 {
			return [3]int{2, 2, 3}
		}
		return [3]int{2, 2, 2}
	}, true)
	e := newEngine(p, Options{})
	if !e.sym[e.pidx[0][1]] {
		t.Fatal("identical boxes not marked symmetric")
	}
	if e.sym[e.pidx[0][2]] || e.sym[e.pidx[1][2]] {
		t.Fatal("distinct boxes marked symmetric")
	}

	// A seed between 0 and 1 breaks their interchangeability.
	p.Seeds = []SeedArc{{Dim: 2, From: 0, To: 1}}
	e = newEngine(p, Options{})
	if e.sym[e.pidx[0][1]] {
		t.Fatal("seed-related boxes marked symmetric")
	}

	// Different seed relations to a third box break it too.
	p.Seeds = []SeedArc{{Dim: 2, From: 0, To: 2}}
	e = newEngine(p, Options{})
	if e.sym[e.pidx[0][1]] {
		t.Fatal("boxes with different successor sets marked symmetric")
	}
}

func TestSymmetryBreakPrunesReverseOrder(t *testing.T) {
	p := prob(2, [3]int{10, 10, 10}, uniformSizes(2, 2, 2), true)
	e := newEngine(p, Options{})
	// Boxes are interchangeable; forcing 1 before 0 must conflict.
	e.setBefore(2, 1, 0, confOrient)
	if e.conflict == noConflict {
		t.Fatal("reverse orientation of a symmetric pair accepted")
	}
	e.undoTo(0)
	e.setBefore(2, 0, 1, confOrient)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("canonical orientation rejected")
	}
}

func TestNodeLimit(t *testing.T) {
	// A moderately hard infeasible instance with the strong rules off,
	// so the search must actually expand nodes.
	p := prob(6, [3]int{5, 5, 5}, func(b int) [3]int {
		return [3]int{2 + b%2, 2, 2}
	}, false)
	r := Solve(p, Options{
		NodeLimit:          3,
		DisableCliqueRule:  true,
		DisableCliqueForce: true,
		DisableC4Rule:      true,
	})
	if r.Status == StatusFeasible || r.Status == StatusInfeasible {
		// Either answer within 3 nodes is impossible for this instance…
		// unless propagation alone solves it; accept only an explicit
		// limit status when nodes were exhausted.
		if r.Stats.Nodes > 3 {
			t.Fatalf("node limit exceeded: %d nodes", r.Stats.Nodes)
		}
	} else if r.Status != StatusNodeLimit {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestInvalidProblemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Solve accepted invalid problem")
		}
	}()
	Solve(&Problem{N: 0}, Options{})
}
