package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomProblem draws a 3-dimensional instance with an ordered time
// axis, a sprinkling of precedence seeds on a DAG order, and a few
// pre-fixed spatial edges. Sizes skew large relative to the capacities
// so the size rule and clique machinery fire often.
func randomProblem(rng *rand.Rand) *Problem {
	n := 4 + rng.Intn(5) // 4..8 boxes
	caps := [3]int{8 + rng.Intn(9), 8 + rng.Intn(9), 6 + rng.Intn(10)}
	p := &Problem{N: n}
	for d := 0; d < 3; d++ {
		dim := Dim{Cap: caps[d], Sizes: make([]int, n), Ordered: d == 2}
		for b := 0; b < n; b++ {
			dim.Sizes[b] = 1 + rng.Intn(caps[d]*3/4)
		}
		p.Dims = append(p.Dims, dim)
	}
	// Precedence arcs respecting box index order (always acyclic).
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.15 {
				p.Seeds = append(p.Seeds, SeedArc{Dim: 2, From: u, To: v})
			}
		}
	}
	// A couple of pre-fixed spatial edges, as the FixedS variants do.
	for k := 0; k < 2; k++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		st := Overlap
		if rng.Intn(2) == 0 {
			st = Disjoint
		}
		p.Fixed = append(p.Fixed, FixedEdge{Dim: rng.Intn(2), U: u, V: v, State: st})
	}
	return p
}

// frontierProblem draws an instance shaped like the benchmark's search
// frontier (bench.Random(14, 4, 4, 0.15) on a 6×6 chip): 12–16 boxes of
// width, height and duration 1–4, precedence arcs between index-ordered
// boxes with probability 0.15 seeded as their transitive closure (as the
// solver does), and a horizon at or just above the larger of the
// critical path and the volume bound, so both verdicts occur. With this
// many boxes most dimensions stay unchanged from node to node, which is
// what the engine's version-keyed skips act on.
func frontierProblem(rng *rand.Rand) *Problem {
	n := 12 + rng.Intn(5)
	const side = 6
	w, h, dur := make([]int, n), make([]int, n), make([]int, n)
	vol := 0
	for b := 0; b < n; b++ {
		w[b], h[b], dur[b] = 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		vol += w[b] * h[b] * dur[b]
	}
	before := make([][]bool, n)
	for u := range before {
		before[u] = make([]bool, n)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			before[u][v] = rng.Float64() < 0.15
		}
	}
	// Arcs only run from lower to higher index, so one pass in index
	// order closes them transitively and finds the longest chain.
	finish := make([]int, n)
	horizon := (vol + side*side - 1) / (side * side)
	for v := 0; v < n; v++ {
		start := 0
		for u := 0; u < v; u++ {
			for k := u + 1; k < v && !before[u][v]; k++ {
				before[u][v] = before[u][k] && before[k][v]
			}
			if before[u][v] && finish[u] > start {
				start = finish[u]
			}
		}
		finish[v] = start + dur[v]
		if finish[v] > horizon {
			horizon = finish[v]
		}
	}
	p := &Problem{N: n, Dims: []Dim{
		{Cap: side, Sizes: w},
		{Cap: side, Sizes: h},
		{Cap: horizon + rng.Intn(3), Sizes: dur, Ordered: true},
	}}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if before[u][v] {
				p.Seeds = append(p.Seeds, SeedArc{Dim: 2, From: u, To: v})
			}
		}
	}
	return p
}

// checkSolution verifies a claimed placement geometrically: in-bounds
// intervals, no two boxes overlapping in every dimension at once, and
// every precedence seed realized on the time axis.
func checkSolution(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	if len(sol.Coords) != len(p.Dims) {
		t.Fatalf("solution has %d dims, want %d", len(sol.Coords), len(p.Dims))
	}
	for d, dim := range p.Dims {
		for b := 0; b < p.N; b++ {
			x := sol.Coords[d][b]
			if x < 0 || x+dim.Sizes[b] > dim.Cap {
				t.Fatalf("box %d out of bounds in dim %d: [%d,%d) cap %d", b, d, x, x+dim.Sizes[b], dim.Cap)
			}
		}
	}
	for u := 0; u < p.N; u++ {
		for v := u + 1; v < p.N; v++ {
			overlapAll := true
			for d, dim := range p.Dims {
				xu, xv := sol.Coords[d][u], sol.Coords[d][v]
				if xu+dim.Sizes[u] <= xv || xv+dim.Sizes[v] <= xu {
					overlapAll = false
					break
				}
			}
			if overlapAll {
				t.Fatalf("boxes %d and %d overlap in all dimensions", u, v)
			}
		}
	}
	for _, a := range p.Seeds {
		if sol.Coords[a.Dim][a.From]+p.Dims[a.Dim].Sizes[a.From] > sol.Coords[a.Dim][a.To] {
			t.Fatalf("precedence %d→%d violated on dim %d", a.From, a.To, a.Dim)
		}
	}
}

// solveBothPaths solves p with the optimized rules and with the
// reference rules (Options.ReferenceRules) and fails unless both give
// the same status, the same full statistics — Nodes and Propagations
// included — and, when feasible, the same witness placement, which must
// be geometrically valid. It returns the status.
func solveBothPaths(t *testing.T, label string, p *Problem, opt Options) Status {
	t.Helper()
	fast := Solve(p, opt)
	optRef := opt
	optRef.ReferenceRules = true
	ref := Solve(p, optRef)
	if fast.Status != ref.Status {
		t.Fatalf("%s: status fast=%v ref=%v", label, fast.Status, ref.Status)
	}
	if !reflect.DeepEqual(fast.Stats, ref.Stats) {
		t.Fatalf("%s: stats diverge\nfast: %+v\nref:  %+v", label, fast.Stats, ref.Stats)
	}
	if fast.Status == StatusFeasible {
		checkSolution(t, p, fast.Solution)
		if !reflect.DeepEqual(fast.Solution, ref.Solution) {
			t.Fatalf("%s: witness placements diverge", label)
		}
	}
	return fast.Status
}

// frontierNodeLimit caps each frontier-corpus search: enough for the
// searches to descend well past the root (about half of them reach the
// cap, whose stats must still agree exactly), small enough to keep the
// reference path's share of the test time low.
const frontierNodeLimit = 1_000

// TestDifferentialRulePaths is the exact-equivalence gate for the
// hot-path optimizations: on random instances, the optimized rule
// implementations and the reference ones must agree exactly (see
// solveBothPaths). The small instances cover many shapes and both
// verdicts; the frontier-scale ones keep most dimensions unchanged from
// node to node, where the version-keyed skips act.
func TestDifferentialRulePaths(t *testing.T) {
	const trials = 120
	rng := rand.New(rand.NewSource(20260806))
	feasible, infeasible := 0, 0
	for i := 0; i < trials; i++ {
		p := randomProblem(rng)
		opt := Options{NodeLimit: 200_000, TimeOverlapFirst: rng.Intn(2) == 0}
		switch solveBothPaths(t, fmt.Sprintf("trial %d", i), p, opt) {
		case StatusFeasible:
			feasible++
		case StatusInfeasible:
			infeasible++
		}
	}
	// The generator must exercise both outcomes for the comparison to
	// mean anything.
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("degenerate instance mix: %d feasible, %d infeasible", feasible, infeasible)
	}
	frng := rand.New(rand.NewSource(20261016))
	for i := 0; i < 16; i++ {
		p := frontierProblem(frng)
		opt := Options{NodeLimit: frontierNodeLimit, TimeOverlapFirst: frng.Intn(2) == 0}
		solveBothPaths(t, fmt.Sprintf("frontier trial %d", i), p, opt)
	}
}

// TestDifferentialRulePathsAblations repeats the differential check
// with individual rules disabled, so the equivalence of each optimized
// rule is probed in isolation too (a bug masked by another rule firing
// first would otherwise hide).
func TestDifferentialRulePathsAblations(t *testing.T) {
	ablations := []struct {
		name string
		mut  func(*Options)
	}{
		{"no-clique-force", func(o *Options) { o.DisableCliqueForce = true }},
		{"no-c4", func(o *Options) { o.DisableC4Rule = true }},
		{"no-clique", func(o *Options) { o.DisableCliqueRule = true }},
	}
	for _, ab := range ablations {
		ab := ab
		t.Run(ab.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(777))
			for i := 0; i < 40; i++ {
				opt := Options{NodeLimit: 200_000}
				ab.mut(&opt)
				solveBothPaths(t, fmt.Sprintf("trial %d", i), randomProblem(rng), opt)
			}
			frng := rand.New(rand.NewSource(778))
			for i := 0; i < 6; i++ {
				opt := Options{NodeLimit: frontierNodeLimit}
				ab.mut(&opt)
				solveBothPaths(t, fmt.Sprintf("frontier trial %d", i), frontierProblem(frng), opt)
			}
		})
	}
}

// TestIncrementalSkipsFire is the white-box companion of the
// differential tests: on the frontier corpus the production path must
// actually take each version-keyed skip — whole clique-force sweeps
// and single clique bounds behind clean rows — or the differential
// tests above would be comparing two copies of the same full scan.
func TestIncrementalSkipsFire(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var total skipCounts
	for i := 0; i < 8; i++ {
		e := newEngine(frontierProblem(rng), Options{NodeLimit: frontierNodeLimit})
		if e.applyRoot() {
			e.dfs(0)
		}
		total.cliqueDims += e.skips.cliqueDims
		total.cliqueBounds += e.skips.cliqueBounds
	}
	if total.cliqueDims == 0 || total.cliqueBounds == 0 {
		t.Fatalf("a skip never fired on the frontier corpus: %+v", total)
	}
	// The reference path never skips.
	e := newEngine(frontierProblem(rng), Options{NodeLimit: frontierNodeLimit, ReferenceRules: true})
	if e.applyRoot() {
		e.dfs(0)
	}
	if e.skips != (skipCounts{}) {
		t.Fatalf("reference path skipped work: %+v", e.skips)
	}
}

// TestLockstepTrails runs the optimized and the reference engine
// through the same depth-first search of frontier-scale trees — with
// the value order drawn at random per node, so the walk leaves the
// paths Solve takes — and requires the two to make every decision in
// the same order: identical trails, conflicts and statistics after each
// child and after each undo, with Γ classes equal to a recompute. A
// skip that only reorders forcings (which a whole-search comparison
// sees only when the reordering changes which rule hits a conflict
// first) fails here at the node where it happens.
func TestLockstepTrails(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for trial := 0; trial < 16; trial++ {
		p := frontierProblem(rng)
		fast := newEngine(p, Options{})
		ref := newEngine(p, Options{ReferenceRules: true})
		okFast, okRef := fast.applyRoot(), ref.applyRoot()
		requireLockstep(t, trial, fast, ref)
		if okFast && okRef {
			budget := frontierNodeLimit
			lockstepDFS(t, trial, fast, ref, rng, &budget)
		}
	}
}

// lockstepDFS expands the current node of both engines until the node
// budget runs out, checking lockstep after every child and every undo.
func lockstepDFS(t *testing.T, trial int, fast, ref *engine, rng *rand.Rand, budget *int) {
	if *budget == 0 {
		return
	}
	*budget--
	d, pr := fast.pickBranch()
	if d < 0 {
		return
	}
	vals := [2]EdgeState{Disjoint, Overlap}
	if rng.Intn(2) == 0 {
		vals[0], vals[1] = vals[1], vals[0]
	}
	for _, val := range vals {
		m := fast.mark()
		for _, e := range []*engine{fast, ref} {
			e.setState(d, pr, val, confSize)
			e.settle()
		}
		requireLockstep(t, trial, fast, ref)
		if fast.conflict == noConflict {
			lockstepDFS(t, trial, fast, ref, rng, budget)
		}
		fast.undoTo(m)
		ref.undoTo(m)
		requireLockstep(t, trial, fast, ref)
	}
}

// requireLockstep fails unless the two engines hold the same trail,
// edge states, orientations, conflict and statistics, and the Γ
// implication classes they keep incrementally equal a recompute from
// scratch.
func requireLockstep(t *testing.T, trial int, fast, ref *engine) {
	t.Helper()
	requireGammaRecomputed(t, fmt.Sprintf("trial %d", trial), fast)
	switch {
	case !reflect.DeepEqual(fast.trail, ref.trail):
		t.Fatalf("trial %d: trails diverge at depth %d/%d", trial, len(fast.trail), len(ref.trail))
	case !reflect.DeepEqual(fast.state, ref.state) || !reflect.DeepEqual(fast.orient, ref.orient):
		t.Fatalf("trial %d: decisions diverge", trial)
	case fast.conflict != ref.conflict:
		t.Fatalf("trial %d: conflict fast=%v ref=%v", trial, fast.conflict, ref.conflict)
	case fast.stats != ref.stats:
		t.Fatalf("trial %d: stats diverge\nfast: %+v\nref:  %+v", trial, fast.stats, ref.stats)
	}
}
