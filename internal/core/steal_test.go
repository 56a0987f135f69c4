package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpga3d/internal/obs"
)

// forceDonation removes the donation gates so steals happen even on the
// tiny trees the test instances build, restoring the defaults when the
// test ends.
func forceDonation(t *testing.T) {
	t.Helper()
	oldDepth, oldUnknown := donateMaxDepth, donateMinUnknown
	donateMaxDepth, donateMinUnknown = 1<<30, 0
	t.Cleanup(func() { donateMaxDepth, donateMinUnknown = oldDepth, oldUnknown })
}

// descend walks the engine down one branch from the current propagated
// node using the engine's own variable and value ordering, stopping at
// a conflict-free child or when the state is fully decided. It returns
// the new depth, or -1 if no conflict-free child exists.
func descend(t *testing.T, e *engine, depth int) int {
	t.Helper()
	d, p := e.pickBranch()
	if d < 0 {
		return depth
	}
	for _, val := range [2]EdgeState{Disjoint, Overlap} {
		m := e.mark()
		e.setState(d, p, val, confSize)
		e.propagate()
		if e.conflict == noConflict && !e.opt.DisableCliqueForce {
			e.cliqueForcePass()
		}
		if e.conflict == noConflict {
			e.holeCheck()
		}
		if e.conflict == noConflict {
			return depth + 1
		}
		e.undoTo(m)
	}
	return -1
}

// TestCloneExploresIdenticalSubtree is the property test behind the
// parallel hand-off: an engine cloned at an interior node must explore
// exactly the subtree the original would have explored — same status,
// same witness, and bit-identical full statistics (DeepEqual), because
// the clone copies every piece of state that feeds rule decisions.
func TestCloneExploresIdenticalSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	frng := rand.New(rand.NewSource(20260809))
	clonedAt := 0
	// The last trials draw frontier-scale instances, whose clones carry
	// live clique-force snapshots and hole memos.
	for trial := 0; trial < 92; trial++ {
		var p *Problem
		opt := Options{NodeLimit: 50_000}
		if trial < 80 {
			p = randomProblem(rng)
		} else {
			p, opt.NodeLimit = frontierProblem(frng), frontierNodeLimit
		}
		opt.TimeOverlapFirst = rng.Intn(2) == 0
		e := newEngine(p, opt)
		if !e.applyRoot() {
			continue // root-infeasible: nothing to clone
		}
		// Walk a random number of levels into the tree before cloning, so
		// clones are exercised at many different frontiers.
		depth := 0
		steps := rng.Intn(4)
		for s := 0; s < steps; s++ {
			nd := descend(t, e, depth)
			if nd < 0 || nd == depth {
				break
			}
			depth = nd
		}
		c := e.cloneForWorker()
		c.pool = nil // both sides run the sequential dfs
		clonedAt++

		// Zero both engines' counters so the comparison covers exactly
		// the subtree exploration below this node.
		e.stats, e.nodeTick = Stats{}, 0
		c.stats, c.nodeTick = Stats{}, 0
		stOrig := e.dfs(depth)
		stClone := c.dfs(depth)
		if stOrig != stClone {
			t.Fatalf("trial %d: status diverges: orig=%v clone=%v", trial, stOrig, stClone)
		}
		if !reflect.DeepEqual(e.stats, c.stats) {
			t.Fatalf("trial %d: stats diverge\norig:  %+v\nclone: %+v", trial, e.stats, c.stats)
		}
		if stOrig == StatusFeasible && !reflect.DeepEqual(e.solution, c.solution) {
			t.Fatalf("trial %d: witnesses diverge", trial)
		}
	}
	if clonedAt < 20 {
		t.Fatalf("only %d trials reached a clonable node; generator degenerate", clonedAt)
	}
}

// TestParallelMatchesSequentialAnswers is the answer-equality gate for
// the work-stealing pool: on random instances the parallel search must
// reach the same feasibility verdict as the sequential one, with a
// geometrically valid witness when feasible. Statistics are only
// sanity-checked (sum-of-shards, not bit-identical).
func TestParallelMatchesSequentialAnswers(t *testing.T) {
	forceDonation(t)
	rng := rand.New(rand.NewSource(20260807))
	var steals int64
	feasible, infeasible := 0, 0
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng)
		opt := Options{NodeLimit: 200_000, TimeOverlapFirst: rng.Intn(2) == 0}
		seq := Solve(p, opt)
		popt := opt
		popt.Workers = 4
		popt.NodeLimit = 0 // shard scheduling must not turn a verdict into a limit
		par := Solve(p, popt)
		if !seq.Status.Decided() {
			continue
		}
		if par.Status != seq.Status {
			t.Fatalf("trial %d: parallel=%v sequential=%v", trial, par.Status, seq.Status)
		}
		switch par.Status {
		case StatusFeasible:
			feasible++
			checkSolution(t, p, par.Solution)
		case StatusInfeasible:
			infeasible++
			// Root-level infeasibility is decided before the pool spins
			// up, with zero search nodes — same as the sequential path.
			if par.Stats.Nodes != seq.Stats.Nodes && par.Stats.Nodes == 0 {
				t.Fatalf("trial %d: parallel lost the root work (seq %d nodes)", trial, seq.Stats.Nodes)
			}
		}
		steals += par.Stats.Steals
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("degenerate instance mix: %d feasible, %d infeasible", feasible, infeasible)
	}
	if steals == 0 {
		t.Fatalf("no subtree was ever donated; the pool never parallelized")
	}
}

// hardInstance is a fixed 11-box instance on a 14×14×14 container
// (sizes drawn once from a seeded stream and embedded) whose
// sequential search takes ≈10k nodes to a feasible verdict — big
// enough for donations at every depth, small enough for -race CI.
func hardInstance(t *testing.T) *Problem {
	t.Helper()
	sizes := [3][]int{
		{4, 4, 7, 4, 7, 4, 6, 7, 5, 6, 5},
		{7, 5, 6, 7, 5, 5, 7, 7, 4, 5, 4},
		{6, 6, 6, 4, 4, 7, 5, 4, 7, 6, 7},
	}
	p := &Problem{N: 11}
	for d := 0; d < 3; d++ {
		p.Dims = append(p.Dims, Dim{Cap: 14, Sizes: sizes[d], Ordered: d == 2})
	}
	return p
}

// TestParallelForcedStealStress hammers the pool with maximal donation
// on a hard instance; under -race this is the data-race gate for the
// clone hand-off, the stop broadcast and the stats merge.
func TestParallelForcedStealStress(t *testing.T) {
	forceDonation(t)
	p := hardInstance(t)
	seq := Solve(p, Options{})
	for _, workers := range []int{2, 8} {
		par := Solve(p, Options{Workers: workers})
		if par.Status != seq.Status {
			t.Fatalf("workers=%d: parallel=%v sequential=%v", workers, par.Status, seq.Status)
		}
		if par.Status == StatusFeasible {
			checkSolution(t, p, par.Solution)
		}
		if par.Stats.Steals == 0 {
			t.Fatalf("workers=%d: expected forced steals, got none (stats %+v)", workers, par.Stats)
		}
	}
}

// TestParallelCancellationMidSteal cancels the context from inside a
// progress callback — i.e. while workers are actively searching with
// donations in flight — and requires the pool to drain and report
// either the cancellation or a verdict it had already reached. This is
// the termination test for the pending-count protocol under abort.
func TestParallelCancellationMidSteal(t *testing.T) {
	forceDonation(t)
	p := hardInstance(t)
	seq := Solve(p, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	res := Solve(p, Options{
		Workers: 4,
		Ctx:     ctx,
		Progress: func(obs.Snapshot) {
			if fired.Add(1) == 1 {
				cancel()
			}
		},
	})
	switch res.Status {
	case StatusCanceled:
		if res.Stats.Nodes == 0 {
			t.Fatal("canceled with zero recorded nodes")
		}
	case seq.Status:
		// A shard may legitimately decide before observing the cancel.
	default:
		t.Fatalf("status %v; want %v or canceled", res.Status, seq.Status)
	}
}

// TestParallelGlobalNodeLimit checks that NodeLimit bounds the summed
// node count of all shards (within the 256-node polling cadence per
// worker), not each shard individually. Forced donation can land a
// shard on a witness within the budget, and the pool ranks a feasible
// outcome above a limit abort, so a verified witness is an accepted
// answer too; either way the node count must respect the global limit.
func TestParallelGlobalNodeLimit(t *testing.T) {
	forceDonation(t)
	p := hardInstance(t)
	const limit = 2_000
	const workers = 4
	res := Solve(p, Options{Workers: workers, NodeLimit: limit})
	switch res.Status {
	case StatusNodeLimit:
	case StatusFeasible:
		checkSolution(t, p, res.Solution)
	default:
		t.Fatalf("status %v; want node-limit or a verified witness", res.Status)
	}
	slack := int64(256*workers + 512)
	if res.Stats.Nodes > limit+slack {
		t.Fatalf("%v: nodes %d overshoot limit %d by more than %d", res.Status, res.Stats.Nodes, limit, slack)
	}
}

// TestParallelOnSolutionFiresOnce checks the incumbent-broadcast hook:
// exactly one invocation, with the same solution the Result carries,
// before Solve returns.
func TestParallelOnSolutionFiresOnce(t *testing.T) {
	forceDonation(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng)
		var calls atomic.Int64
		var got atomic.Pointer[Solution]
		res := Solve(p, Options{Workers: 4, OnSolution: func(s *Solution) {
			calls.Add(1)
			got.Store(s)
		}})
		if res.Status != StatusFeasible {
			if calls.Load() != 0 {
				t.Fatalf("trial %d: OnSolution fired on %v", trial, res.Status)
			}
			continue
		}
		if calls.Load() != 1 {
			t.Fatalf("trial %d: OnSolution fired %d times", trial, calls.Load())
		}
		if got.Load() != res.Solution {
			t.Fatalf("trial %d: hook saw a different solution than the result", trial)
		}
		return // one feasible case is enough
	}
	t.Fatal("no feasible instance drawn in 200 trials")
}

// TestParallelWorkerPanicRepanics feeds the pool tasks that panic on
// a worker goroutine — a root engine whose state is corrupt, and a
// feasible search whose OnSolution hook panics while forced donations
// keep other shards running. Each time the pool must drain instead of
// deadlocking, leave no worker behind, and raise the panic again on
// the caller's goroutine, carrying the worker's stack.
func TestParallelWorkerPanicRepanics(t *testing.T) {
	forceDonation(t)
	cases := []struct {
		name  string
		frame string // a function on the panicking worker's stack
		solve func()
	}{
		{"corrupt engine", "pickBranch", func() {
			opt := Options{Workers: 4}
			e := newEngine(hardInstance(t), opt)
			if !e.applyRoot() {
				panic("root refuted")
			}
			e.state = nil
			solveParallel(e, opt)
		}},
		{"panicking hook", "record", func() {
			Solve(hardInstance(t), Options{Workers: 4, OnSolution: func(*Solution) { panic("boom") }})
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		var got any
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { got = recover() }()
			c.solve()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: pool deadlocked after a worker panic", c.name)
		}
		wp, ok := got.(*workerPanic)
		if !ok {
			t.Fatalf("%s: caller recovered %T %v, want *workerPanic", c.name, got, got)
		}
		if msg := wp.Error(); !strings.Contains(msg, fmt.Sprint(wp.value)) || !strings.Contains(msg, c.frame) {
			t.Fatalf("%s: re-panic does not carry the worker's stack:\n%s", c.name, msg)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the panicking search, %d before", c.name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
