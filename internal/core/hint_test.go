package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// withHint returns a copy of p whose time axis carries a random hint:
// one position per box in [0, Cap+2), so some hinted intervals run past
// the horizon as a greedy schedule that missed it does. One copy in
// four hints the first spatial axis too. p itself is not modified.
func withHint(p *Problem, rng *rand.Rand) *Problem {
	q := *p
	q.Dims = append([]Dim(nil), p.Dims...)
	hint := func(d int) {
		h := make([]int, p.N)
		for b := range h {
			h[b] = rng.Intn(q.Dims[d].Cap + 2)
		}
		q.Dims[d].Hint = h
	}
	hint(2)
	if rng.Intn(4) == 0 {
		hint(0)
	}
	return &q
}

// packProblem draws a three-dimensional packing of 8–9 boxes of sides
// 1–3 on a 5×5 chip, without precedence, whose horizon leaves 85–95% of
// the volume filled. Nearly every infeasible problem of randomProblem
// and frontierProblem is refuted at the root, where the child order
// plays no part; on this shape about one draw in fifty is an infeasible
// search of more than one node.
func packProblem(rng *rand.Rand) *Problem {
	n := 8 + rng.Intn(2)
	const side = 5
	sizes := [3][]int{make([]int, n), make([]int, n), make([]int, n)}
	vol := 0
	for b := 0; b < n; b++ {
		v := 1
		for d := range sizes {
			sizes[d][b] = 1 + rng.Intn(3)
			v *= sizes[d][b]
		}
		vol += v
	}
	T := max(3, vol*100/(85+rng.Intn(11))/(side*side))
	return &Problem{N: n, Dims: []Dim{
		{Cap: side, Sizes: sizes[0]},
		{Cap: side, Sizes: sizes[1]},
		{Cap: T, Sizes: sizes[2], Ordered: true},
	}}
}

// checkHintOrder solves p unhinted and hinted, sequentially, and fails
// unless the hinted search keeps every property the hint promises: the
// same verdict wherever both decide, the identical tree (full Stats)
// when the unhinted search exhausts it, and a valid witness when
// feasible. It returns the unhinted result and whether the hint changed
// the search.
func checkHintOrder(t *testing.T, label string, p, hinted *Problem, opt Options) (Result, bool) {
	t.Helper()
	plain, hint := Solve(p, opt), Solve(hinted, opt)
	if plain.Status.Decided() && hint.Status.Decided() && plain.Status != hint.Status {
		t.Fatalf("%s: hinted %v, unhinted %v", label, hint.Status, plain.Status)
	}
	if plain.Status == StatusInfeasible && !reflect.DeepEqual(plain.Stats, hint.Stats) {
		t.Fatalf("%s: infeasible tree changed under the hint\nplain: %+v\nhint:  %+v", label, plain.Stats, hint.Stats)
	}
	if hint.Status == StatusFeasible {
		checkSolution(t, hinted, hint.Solution)
	}
	return plain, !reflect.DeepEqual(plain, hint)
}

// checkHintSubtree walks an unhinted and a hinted engine down the same
// random path of up to eight branch decisions, so the two states stay
// identical, and then searches the subtree below on both. A subtree the
// unhinted search exhausts must be the same tree under the hint, with
// identical Stats; a feasible one must stay feasible with a valid
// witness. The subtrees off a random path give the check more
// infeasible trees past the root than whole problems do. It reports
// whether the subtree was exhausted below its first node.
func checkHintSubtree(t *testing.T, label string, p, hinted *Problem, opt Options, rng *rand.Rand) bool {
	t.Helper()
	plain, hint := newEngine(p, opt), newEngine(hinted, opt)
	if plain.applyRoot() != hint.applyRoot() {
		t.Fatalf("%s: root verdict differs under the hint", label)
	}
	if plain.conflict != noConflict {
		return false
	}
	depth := 0
	for steps := rng.Intn(8); depth < steps; depth++ {
		d, pr := plain.pickBranch()
		if d < 0 {
			return false
		}
		val := EdgeState(1 + rng.Intn(2))
		for _, e := range []*engine{plain, hint} {
			e.setState(d, pr, val, confSize)
			e.settle()
		}
		if plain.conflict != hint.conflict {
			t.Fatalf("%s: the walk diverged under the hint", label)
		}
		if plain.conflict != noConflict {
			return false
		}
	}
	plain.stats, hint.stats = Stats{}, Stats{}
	stPlain, stHint := plain.dfs(depth), hint.dfs(depth)
	if stPlain.Decided() && stHint.Decided() && stPlain != stHint {
		t.Fatalf("%s: subtree at depth %d hinted %v, unhinted %v", label, depth, stHint, stPlain)
	}
	if stHint == StatusFeasible {
		checkSolution(t, hinted, hint.solution)
	}
	if stPlain != StatusInfeasible {
		return false
	}
	if !reflect.DeepEqual(plain.stats, hint.stats) {
		t.Fatalf("%s: exhausted subtree at depth %d changed under the hint\nplain: %+v\nhint:  %+v", label, depth, plain.stats, hint.stats)
	}
	return plain.stats.Nodes > 1
}

// TestHintOrder runs checkHintOrder over the small, the packing and the
// frontier-scale corpora, with and without the time-axis preference,
// and requires the hint to change some search and the corpus to hold
// infeasible searches past the root, or the checks would compare two
// copies of the same run.
func TestHintOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	hrng := rand.New(rand.NewSource(20261020))
	changed, deepInfeasible := 0, 0
	check := func(label string, p *Problem, opt Options) {
		t.Helper()
		plain, moved := checkHintOrder(t, label, p, withHint(p, hrng), opt)
		if moved {
			changed++
		}
		if plain.Status == StatusInfeasible && plain.Stats.Nodes > 1 {
			deepInfeasible++
		}
	}
	for i := 0; i < 150; i++ {
		p := randomProblem(rng)
		check(fmt.Sprintf("trial %d", i), p, Options{NodeLimit: 200_000, TimeOverlapFirst: rng.Intn(2) == 0})
	}
	for i := 0; i < 300; i++ {
		p := packProblem(rng)
		check(fmt.Sprintf("packing trial %d", i), p, Options{NodeLimit: 20_000, TimeOverlapFirst: rng.Intn(2) == 0})
	}
	for i := 0; i < 16; i++ {
		p := frontierProblem(rng)
		check(fmt.Sprintf("frontier trial %d", i), p, Options{NodeLimit: frontierNodeLimit, TimeOverlapFirst: true})
	}
	if changed == 0 || deepInfeasible < 3 {
		t.Fatalf("degenerate corpus: the hint changed %d searches, %d infeasible past the root", changed, deepInfeasible)
	}
}

// TestHintKeepsExhaustedSubtrees runs checkHintSubtree on the packing
// corpus and requires enough exhausted subtrees of more than one node
// for the comparison to mean something.
func TestHintKeepsExhaustedSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(20261023))
	exhausted := 0
	for i := 0; i < 400; i++ {
		p := packProblem(rng)
		opt := Options{NodeLimit: 20_000, TimeOverlapFirst: rng.Intn(2) == 0}
		if checkHintSubtree(t, fmt.Sprintf("trial %d", i), p, withHint(p, rng), opt, rng) {
			exhausted++
		}
	}
	if exhausted < 5 {
		t.Fatalf("only %d exhausted subtrees of more than one node", exhausted)
	}
}

// TestDifferentialRulePathsHinted is TestDifferentialRulePaths on
// hinted problems: both rule paths read the hint in the one dfs, so
// they must stay bit-identical.
func TestDifferentialRulePathsHinted(t *testing.T) {
	rng := rand.New(rand.NewSource(20261022))
	for i := 0; i < 60; i++ {
		p := withHint(randomProblem(rng), rng)
		solveBothPaths(t, fmt.Sprintf("trial %d", i), p, Options{NodeLimit: 200_000})
	}
	for i := 0; i < 8; i++ {
		p := withHint(frontierProblem(rng), rng)
		solveBothPaths(t, fmt.Sprintf("frontier trial %d", i), p, Options{NodeLimit: frontierNodeLimit})
	}
}

// TestHintValidate checks that a hint must hold one non-negative
// position per box.
func TestHintValidate(t *testing.T) {
	p := hardInstance(t)
	p.Dims[2].Hint = make([]int, p.N)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid hint rejected: %v", err)
	}
	p.Dims[2].Hint = make([]int, p.N-1)
	if p.Validate() == nil {
		t.Fatal("short hint accepted")
	}
	p.Dims[2].Hint = make([]int, p.N)
	p.Dims[2].Hint[3] = -1
	if p.Validate() == nil {
		t.Fatal("negative hinted position accepted")
	}
}

// FuzzHintOrder is checkHintOrder and checkHintSubtree on a fuzzed
// small or packing problem (by the seed's parity) and a fuzzed hint.
func FuzzHintOrder(f *testing.F) {
	f.Add(int64(1), int64(2), false)
	f.Add(int64(42), int64(7), true)
	f.Add(int64(20261019), int64(3), false)
	f.Fuzz(func(t *testing.T, seed, hintSeed int64, overlapFirst bool) {
		p := randomProblem(rand.New(rand.NewSource(seed)))
		if seed%2 == 0 {
			p = packProblem(rand.New(rand.NewSource(seed)))
		}
		hrng := rand.New(rand.NewSource(hintSeed))
		hinted := withHint(p, hrng)
		label := fmt.Sprintf("seed %d hint %d", seed, hintSeed)
		opt := Options{NodeLimit: 50_000, TimeOverlapFirst: overlapFirst}
		checkHintOrder(t, label, p, hinted, opt)
		checkHintSubtree(t, label, p, hinted, opt, hrng)
	})
}
