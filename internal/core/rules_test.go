package core

import (
	"fmt"
	"testing"
)

// freshEngine returns an engine over n equal boxes in a loose container,
// so no rule fires from sizes alone.
func freshEngine(n int, ordered bool) *engine {
	p := prob(n, [3]int{100, 100, 100}, uniformSizes(2, 2, 2), ordered)
	return newEngine(p, Options{})
}

// distinctEngine returns an engine over n pairwise distinct boxes, so
// the symmetry breaker stays out of orientation tests.
func distinctEngine(n int, ordered bool) *engine {
	p := prob(n, [3]int{100, 100, 100}, func(b int) [3]int {
		return [3]int{1 + b, 2, 2}
	}, ordered)
	return newEngine(p, Options{})
}

func TestSizeRuleAtRoot(t *testing.T) {
	// Two 3-wide boxes in a 5-wide container must overlap in x.
	p := prob(2, [3]int{5, 100, 100}, uniformSizes(3, 2, 2), false)
	r := Solve(p, Options{})
	if r.Status != StatusFeasible {
		t.Fatalf("status = %v", r.Status)
	}
	// x-projections must overlap in the solution.
	x := r.Solution.Coords[0]
	if !(x[0] < x[1]+3 && x[1] < x[0]+3) {
		t.Fatalf("size rule not reflected in solution: x = %v", x)
	}
	if r.Stats.ForcedSize == 0 {
		t.Fatal("ForcedSize not counted")
	}
}

func TestCliqueRuleConflict(t *testing.T) {
	// Three boxes of x-size 4 pairwise disjoint in x exceed capacity 10.
	p := prob(3, [3]int{10, 100, 100}, uniformSizes(4, 2, 2), false)
	e := newEngine(p, Options{})
	e.setState(0, e.pidx[0][1], Disjoint, confSize)
	e.propagate()
	e.setState(0, e.pidx[1][2], Disjoint, confSize)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("two disjoint pairs conflicted too early")
	}
	e.setState(0, e.pidx[0][2], Disjoint, confSize)
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("overweight disjoint clique not detected")
	}
}

func TestCliqueForcePass(t *testing.T) {
	// Same setup: with {0,1} and {1,2} disjoint, pair {0,2} must be
	// forced to Overlap by the per-node pass.
	p := prob(3, [3]int{10, 100, 100}, uniformSizes(4, 2, 2), false)
	e := newEngine(p, Options{})
	e.setState(0, e.pidx[0][1], Disjoint, confSize)
	e.setState(0, e.pidx[1][2], Disjoint, confSize)
	e.propagate()
	e.cliqueForcePass()
	if e.conflict != noConflict {
		t.Fatal("unexpected conflict")
	}
	if e.state[0][e.pidx[0][2]] != Overlap {
		t.Fatal("cliqueForcePass did not force {0,2} to Overlap")
	}
}

// TestCliqueForceSweepSeesItsOwnForcings pins down, one sweep at a
// time, the two ways a clique-force sweep's own forcing can enable
// another in the same dimension, which the version-keyed skips must not
// lose: a disjoint clique forces {u,v} Overlap, and the now-complete
// overlap clique {u,v} makes the area rule force a pair whose overlap
// neighbours are u and v. The boxes swap roles between the cases, so
// the second forcing comes after the first in pair order (same sweep)
// or before it (next sweep). The reference path must agree.
func TestCliqueForceSweepSeesItsOwnForcings(t *testing.T) {
	// In x, three boxes of width 4 exceed the capacity 10 together; the
	// cross-areas (y·t, capacity 10·10) of two 6×6 and two 5×5 boxes
	// exceed it only all four together.
	big, small, hub := [3]int{4, 6, 6}, [3]int{1, 5, 5}, [3]int{4, 1, 1}
	cases := []struct {
		name                string
		sizes               [5][3]int
		overlap, disjoint   [][2]int
		trigger             [2]int // disjoint edge added after a clean sweep
		forcedOv, forcedDis [2]int
		sameSweep           bool
	}{
		{
			name:     "later pair",
			sizes:    [5][3]int{big, big, hub, small, small},
			overlap:  [][2]int{{0, 3}, {0, 4}, {1, 3}, {1, 4}},
			disjoint: [][2]int{{1, 2}},
			trigger:  [2]int{0, 2},
			forcedOv: [2]int{0, 1}, forcedDis: [2]int{3, 4},
			sameSweep: true,
		},
		{
			name:     "earlier pair",
			sizes:    [5][3]int{small, small, big, big, hub},
			overlap:  [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}},
			disjoint: [][2]int{{2, 4}},
			trigger:  [2]int{3, 4},
			forcedOv: [2]int{2, 3}, forcedDis: [2]int{0, 1},
		},
	}
	for _, tc := range cases {
		for _, ref := range []bool{false, true} {
			p := prob(5, [3]int{10, 10, 10}, func(b int) [3]int { return tc.sizes[b] }, false)
			e := newEngine(p, Options{ReferenceRules: ref})
			for _, pr := range tc.overlap {
				e.setState(0, e.pidx[pr[0]][pr[1]], Overlap, confSize)
			}
			for _, pr := range tc.disjoint {
				e.setState(0, e.pidx[pr[0]][pr[1]], Disjoint, confSize)
			}
			if e.cliqueForceDim(0) {
				t.Fatalf("%s (ref=%v): setup already forces", tc.name, ref)
			}
			e.setState(0, e.pidx[tc.trigger[0]][tc.trigger[1]], Disjoint, confSize)
			e.cliqueForceDim(0)
			if !tc.sameSweep {
				if got := e.st(0, tc.forcedDis[0], tc.forcedDis[1]); got != Unknown {
					t.Fatalf("%s (ref=%v): pair %v decided in the first sweep", tc.name, ref, tc.forcedDis)
				}
				e.cliqueForceDim(0)
			}
			if e.conflict != noConflict {
				t.Fatalf("%s (ref=%v): unexpected conflict", tc.name, ref)
			}
			if got := e.st(0, tc.forcedOv[0], tc.forcedOv[1]); got != Overlap {
				t.Fatalf("%s (ref=%v): pair %v = %v, want Overlap", tc.name, ref, tc.forcedOv, got)
			}
			if got := e.st(0, tc.forcedDis[0], tc.forcedDis[1]); got != Disjoint {
				t.Fatalf("%s (ref=%v): pair %v = %v, want Disjoint", tc.name, ref, tc.forcedDis, got)
			}
		}
	}
}

func TestAreaCliqueRule(t *testing.T) {
	// Two boxes whose cross-sections (y×t) cannot coexist: each has
	// cross-area 6×6 = 36, the container cross-section is 8×8 = 64 < 72.
	// Forcing them to overlap in x must conflict.
	p := prob(2, [3]int{20, 8, 8}, uniformSizes(2, 6, 6), false)
	e := newEngine(p, Options{})
	e.setState(0, e.pidx[0][1], Overlap, confSize)
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("area clique violation not detected")
	}

	// The force variant: in the full solve the pair must come out
	// x-disjoint.
	r := Solve(p, Options{})
	if r.Status != StatusFeasible {
		t.Fatalf("status = %v", r.Status)
	}
	x := r.Solution.Coords[0]
	if x[0] < x[1]+2 && x[1] < x[0]+2 {
		t.Fatal("cross-over-capacity boxes overlap in x")
	}
}

func TestC4RuleConflictAndForce(t *testing.T) {
	e := freshEngine(4, false)
	d := 0
	// Build the forbidden pattern in dimension 0 on the cycle
	// 0-2-1-3-0 with diagonals {0,1}, {2,3}: cycle edges Overlap…
	for _, pr := range [][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 0}} {
		e.setState(d, e.pidx[pr[0]][pr[1]], Overlap, confSize)
		e.propagate()
		if e.conflict != noConflict {
			t.Fatal("cycle edges alone conflicted")
		}
	}
	// …one diagonal Disjoint: the other diagonal must be forced Overlap.
	e.setState(d, e.pidx[0][1], Disjoint, confSize)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("five-edge pattern conflicted")
	}
	if e.state[d][e.pidx[2][3]] != Overlap {
		t.Fatal("C4 rule did not force the last diagonal")
	}
	if e.stats.ForcedC4 == 0 {
		t.Fatal("ForcedC4 not counted")
	}
}

func TestC4RuleDisabled(t *testing.T) {
	p := prob(4, [3]int{100, 100, 100}, uniformSizes(2, 2, 2), false)
	e := newEngine(p, Options{DisableC4Rule: true})
	d := 0
	for _, pr := range [][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 0}} {
		e.setState(d, e.pidx[pr[0]][pr[1]], Overlap, confSize)
	}
	e.setState(d, e.pidx[0][1], Disjoint, confSize)
	e.propagate()
	if e.state[d][e.pidx[2][3]] == Overlap {
		t.Fatal("C4 rule fired although disabled")
	}
}

// holePairs returns the pairs of a k-cycle on boxes 0..k-1: its cycle
// edges, then its chords.
func holePairs(k int) (cycle, chords [][2]int) {
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if v == u+1 || (u == 0 && v == k-1) {
				cycle = append(cycle, [2]int{u, v})
			} else {
				chords = append(chords, [2]int{u, v})
			}
		}
	}
	return cycle, chords
}

// TestHolesRefutedByPropagation pins what lets the engine go without a
// hole search: a chordless cycle of length k whose cycle edges Overlap
// and whose chords are all Disjoint is refuted by propagation alone, on
// every axis, with the time axis ordered or not. The C4 rule refutes
// k = 4; for k ≥ 5 the disjoint graph is the complement of C_k, which
// has no transitive orientation, so the Γ classes do. Decided all at
// once, propagation must conflict; decided one pair at a time (cycle
// edges or chords first), it must conflict or have forced a later pair
// of the hole the other way (the C4 rule, k = 4 only).
func TestHolesRefutedByPropagation(t *testing.T) {
	want := func(k int) conflictRule {
		if k == 4 {
			return confC4
		}
		return confGamma
	}
	for _, ordered := range []bool{false, true} {
		for d := 0; d < 3; d++ {
			for k := 4; k <= 8; k++ {
				cycle, chords := holePairs(k)
				type step struct {
					uv [2]int
					s  EdgeState
				}
				var cycleFirst, chordsFirst []step
				for _, uv := range cycle {
					cycleFirst = append(cycleFirst, step{uv, Overlap})
				}
				for _, uv := range chords {
					cycleFirst = append(cycleFirst, step{uv, Disjoint})
					chordsFirst = append(chordsFirst, step{uv, Disjoint})
				}
				for _, uv := range cycle {
					chordsFirst = append(chordsFirst, step{uv, Overlap})
				}
				label := fmt.Sprintf("ordered=%v axis %d C%d", ordered, d, k)

				e := freshEngine(k, ordered)
				for _, st := range cycleFirst {
					e.setState(d, e.pidx[st.uv[0]][st.uv[1]], st.s, confSize)
				}
				e.propagate()
				if e.conflict != want(k) {
					t.Errorf("%s at once: conflict %v, want %v", label, e.conflict, want(k))
				}

				for _, order := range []struct {
					name  string
					steps []step
				}{{"cycle first", cycleFirst}, {"chords first", chordsFirst}} {
					e := freshEngine(k, ordered)
					forced := false
					for _, st := range order.steps {
						pr := e.pidx[st.uv[0]][st.uv[1]]
						if cur := e.state[d][pr]; cur != Unknown && cur != st.s {
							forced = true
							break
						}
						e.setState(d, pr, st.s, confSize)
						e.propagate()
						if e.conflict != noConflict {
							break
						}
					}
					switch {
					case forced && (k != 4 || e.stats.ForcedC4 == 0):
						t.Errorf("%s %s: a pair was forced the other way, ForcedC4 = %d", label, order.name, e.stats.ForcedC4)
					case !forced && e.conflict != want(k):
						t.Errorf("%s %s: conflict %v, want %v", label, order.name, e.conflict, want(k))
					}
				}

				if k != 5 {
					continue
				}
				// The C5 structure with one open chord: Overlap there
				// closes the 4-cycle 0-1-2-4 with Disjoint diagonals, so
				// the C4 rule forces it Disjoint and Γ refutes the hole.
				e = freshEngine(k, ordered)
				for _, st := range cycleFirst {
					if st.uv != [2]int{2, 4} {
						e.setState(d, e.pidx[st.uv[0]][st.uv[1]], st.s, confSize)
					}
				}
				e.propagate()
				if e.conflict != confGamma || e.stats.ForcedC4 == 0 {
					t.Errorf("%s one open chord: conflict %v, ForcedC4 %d; want gamma after a C4 forcing",
						label, e.conflict, e.stats.ForcedC4)
				}
			}
		}
	}
}

func TestHoleRuleConflictOnDecidedC5(t *testing.T) {
	e := freshEngine(5, false)
	d := 0
	for i := 0; i < 5; i++ {
		e.setState(d, e.pidx[i][(i+1)%5], Overlap, confSize)
	}
	for _, ch := range [][2]int{{0, 2}, {0, 3}, {1, 3}, {1, 4}, {2, 4}} {
		e.setState(d, e.pidx[ch[0]][ch[1]], Disjoint, confSize)
	}
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("fully decided C5 hole not detected")
	}
}

func TestD1PathImplication(t *testing.T) {
	// Figure 6 (D1): {u,a}, {u,b} disjoint in time, {a,b} overlapping.
	// Orienting u before a must force u before b.
	e := distinctEngine(3, true)
	const d = 2
	u, a, b := 0, 1, 2
	e.setState(d, e.pidx[a][b], Overlap, confSize)
	e.setState(d, e.pidx[u][a], Disjoint, confSize)
	e.setState(d, e.pidx[u][b], Disjoint, confSize)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("setup conflicted")
	}
	e.setBefore(d, u, a, confOrient)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("orientation conflicted")
	}
	if !e.orientedBefore(d, u, b) {
		t.Fatal("D1 did not propagate u before b")
	}
}

func TestD1ConflictingOrientations(t *testing.T) {
	// Same configuration, but the two comparability edges are oriented
	// in opposite directions relative to u before the overlap edge is
	// fixed — fixing it must conflict.
	e := distinctEngine(3, true)
	const d = 2
	u, a, b := 0, 1, 2
	e.setState(d, e.pidx[u][a], Disjoint, confSize)
	e.setState(d, e.pidx[u][b], Disjoint, confSize)
	e.setBefore(d, u, a, confOrient) // u before a
	e.setBefore(d, b, u, confOrient) // b before u
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("setup conflicted early")
	}
	e.setState(d, e.pidx[a][b], Overlap, confSize)
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("D1 path conflict not detected")
	}
}

func TestD2TransitivityForcesState(t *testing.T) {
	// u→v and v→w force {u,w} disjoint and oriented u→w, even if the
	// pair was previously unknown.
	e := distinctEngine(3, true)
	const d = 2
	e.setBefore(d, 0, 1, confOrient)
	e.propagate()
	e.setBefore(d, 1, 2, confOrient)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("chain conflicted")
	}
	if e.state[d][e.pidx[0][2]] != Disjoint || !e.orientedBefore(d, 0, 2) {
		t.Fatal("D2 did not force 0 before 2")
	}
}

func TestD2TransitivityConflictOnOverlap(t *testing.T) {
	// With {u,w} fixed overlapping, u→v→w is contradictory.
	e := distinctEngine(3, true)
	const d = 2
	e.setState(d, e.pidx[0][2], Overlap, confSize)
	e.propagate()
	e.setBefore(d, 0, 1, confOrient)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("single arc conflicted")
	}
	e.setBefore(d, 1, 2, confOrient)
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("transitivity conflict through an overlap edge not detected")
	}
}

func TestD2CycleConflict(t *testing.T) {
	e := distinctEngine(3, true)
	const d = 2
	e.setBefore(d, 0, 1, confOrient)
	e.propagate()
	e.setBefore(d, 1, 2, confOrient)
	e.propagate()
	e.setBefore(d, 2, 0, confOrient)
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("directed cycle not detected")
	}
}

func TestOrientRulesDisabled(t *testing.T) {
	e := newEngine(prob(3, [3]int{100, 100, 100}, uniformSizes(2, 2, 2), true),
		Options{DisableOrientRules: true})
	const d = 2
	e.setBefore(d, 0, 1, confOrient)
	e.propagate()
	e.setBefore(d, 1, 2, confOrient)
	e.propagate()
	if e.state[d][e.pidx[0][2]] == Disjoint {
		t.Fatal("D2 fired although orientation rules are disabled")
	}
}

// TestFigure5ThroughEngine replays the paper's Figure 5 obstruction
// inside the engine: a path-shaped comparability structure whose seeds
// cannot be extended. The engine must detect it during propagation.
func TestFigure5ThroughEngine(t *testing.T) {
	// Boxes 0-1-2-3; time pairs {0,1}, {1,2}, {2,3} disjoint; {0,2},
	// {1,3}, {0,3} overlapping; seeds 0→1 and 3→2.
	e := distinctEngine(4, true)
	const d = 2
	for _, pr := range [][2]int{{0, 2}, {1, 3}, {0, 3}} {
		e.setState(d, e.pidx[pr[0]][pr[1]], Overlap, confSize)
	}
	for _, pr := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		e.setState(d, e.pidx[pr[0]][pr[1]], Disjoint, confSize)
	}
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("structure alone conflicted")
	}
	e.setBefore(d, 0, 1, confOrient)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("first seed conflicted")
	}
	e.setBefore(d, 3, 2, confOrient)
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("Figure 5 obstruction not detected by D1/D2 closure")
	}
}

func TestOddAntiholeRule(t *testing.T) {
	// An induced C5 of *disjoint* edges is an odd hole of the complement
	// — comparability graphs are perfect, so this violates C1's
	// comparability half. With all chords decided Overlap the Γ classes
	// must refute it during propagation: going round the cycle, each
	// overlapping chord links the two disjoint edges at its middle
	// vertex, and an odd cycle returns with the opposite orientation.
	// Capacities are generous so no clique rule interferes.
	e := freshEngine(5, false)
	d := 0
	for i := 0; i < 5; i++ {
		e.setState(d, e.pidx[i][(i+1)%5], Disjoint, confSize)
	}
	for _, ch := range [][2]int{{0, 2}, {0, 3}, {1, 3}, {1, 4}, {2, 4}} {
		e.setState(d, e.pidx[ch[0]][ch[1]], Overlap, confSize)
	}
	e.propagate()
	if e.conflict != confGamma {
		t.Fatalf("odd antihole (C5 of disjoint edges) not refuted by gamma: conflict %v", e.conflict)
	}
	if e.stats.ConflictGamma != 1 {
		t.Fatalf("ConflictGamma = %d, want 1", e.stats.ConflictGamma)
	}
}

func TestEvenAntiholeIsInconclusive(t *testing.T) {
	// Six disjoint edges forming a C6 in the disjoint graph: an even
	// cycle is a comparability graph, so with the chords still Unknown
	// (and even with all of them Overlap, as far as Γ is concerned) the
	// Γ classes must stay consistent and force nothing. (Fully deciding
	// the chords Overlap is refuted — correctly — by the C4 rule
	// instead: the complement of C6 contains an induced C4.)
	e := freshEngine(6, false)
	d := 0
	for i := 0; i < 6; i++ {
		e.setState(d, e.pidx[i][(i+1)%6], Disjoint, confSize)
	}
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("cycle edges alone conflicted")
	}
	for i := 0; i < 6; i++ {
		for j := i + 2; j < 6; j++ {
			if !(i == 0 && j == 5) && e.st(d, i, j) != Unknown {
				t.Fatalf("even antihole decided chord {%d,%d}", i, j)
			}
		}
	}
	// Γ alone, with every chord Overlap: the classes link the whole
	// cycle, consistently.
	g := newEngine(prob(6, [3]int{100, 100, 100}, uniformSizes(2, 2, 2), false),
		Options{DisableC4Rule: true})
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			s := Overlap
			if v == u+1 || (u == 0 && v == 5) {
				s = Disjoint
			}
			g.setState(d, g.pidx[u][v], s, confSize)
		}
	}
	g.propagate()
	if g.conflict != noConflict {
		t.Fatalf("gamma refuted the even antihole: conflict %v", g.conflict)
	}
	r0, _ := g.gammaFind(d, g.pidx[0][1])
	for i := 1; i < 6; i++ {
		if r, _ := g.gammaFind(d, g.pidx[i][(i+1)%6]); r != r0 {
			t.Fatalf("cycle edge {%d,%d} not in the cycle's implication class", i, (i+1)%6)
		}
	}
}

func TestComplementC6IsRefutedByChordality(t *testing.T) {
	// The observation behind the previous test: deciding every chord of
	// the C6-of-disjoint-edges to Overlap yields an overlap graph equal
	// to the complement of C6, which contains an induced C4 — the C4
	// rule must refute the completed structure during propagation.
	e := freshEngine(6, false)
	d := 0
	for i := 0; i < 6; i++ {
		e.setState(d, e.pidx[i][(i+1)%6], Disjoint, confSize)
	}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if v != u+1 && !(u == 0 && v == 5) {
				e.setState(d, e.pidx[u][v], Overlap, confSize)
			}
		}
	}
	e.propagate()
	if e.conflict == noConflict {
		t.Fatal("complement-of-C6 overlap graph not refuted")
	}
}

func TestAntiholeForcing(t *testing.T) {
	// C5 of disjoint edges with four chords Overlap and one Unknown: no
	// rule forces the open chord, but deciding it Overlap completes the
	// odd antihole, which the Γ classes refute; Disjoint is consistent.
	e := newEngine(prob(5, [3]int{100, 100, 100}, uniformSizes(2, 2, 2), false),
		Options{DisableC4Rule: true})
	d := 0
	for i := 0; i < 5; i++ {
		e.setState(d, e.pidx[i][(i+1)%5], Disjoint, confSize)
	}
	chords := [][2]int{{0, 2}, {0, 3}, {1, 3}, {1, 4}}
	for _, ch := range chords {
		e.setState(d, e.pidx[ch[0]][ch[1]], Overlap, confSize)
	}
	e.propagate()
	if e.conflict != noConflict {
		t.Fatal("conflicted with an open chord")
	}
	open := e.pidx[2][4]
	if e.state[d][open] != Unknown {
		t.Fatalf("open chord decided: %v", e.state[d][open])
	}
	m := e.mark()
	e.setState(d, open, Overlap, confSize)
	e.propagate()
	if e.conflict != confGamma {
		t.Fatalf("open chord decided Overlap: conflict %v, want gamma", e.conflict)
	}
	e.undoTo(m)
	e.setState(d, open, Disjoint, confSize)
	e.propagate()
	if e.conflict != noConflict {
		t.Fatalf("open chord decided Disjoint: conflict %v", e.conflict)
	}
}
