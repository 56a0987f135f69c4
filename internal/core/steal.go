package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Donation gates. A subtree is only handed off while the branch node is
// shallow enough and enough pairs remain undecided for the subtree to
// amortize the clone; tests override these to force steals on tiny
// trees. Both are read-only while a pool is running.
var (
	// donateMaxDepth is the deepest branch node whose sibling subtree
	// may be donated.
	donateMaxDepth = 64
	// donateMinUnknown is the minimum number of still-undecided
	// (dimension, pair) variables required for a donation.
	donateMinUnknown = 6
)

// task is one unit of pool work: an engine positioned at a propagated,
// conflict-free node, plus (for donated tasks) the branch assignment
// the thief applies before descending.
type task struct {
	e     *engine
	depth int
	// branch marks donated tasks: apply state[dim][pair] = val, then
	// propagate, before exploring. The root task has branch == false —
	// its engine is already at the propagated root.
	branch    bool
	dim, pair int
	val       EdgeState
}

// wspool coordinates a shared-tree parallel search: a fixed set of
// workers drains a task channel; running workers donate unexplored
// sibling subtrees (as engine clones) whenever a worker is idle; the
// first definitive answer sets the stop flag, which every shard
// observes on its 256-node polling cadence.
//
// Termination uses a pending-task count: every enqueued task holds one
// reference, released when its shard returns; the release that drops
// the count to zero closes the channel. Donations take their reference
// before the non-blocking send (rolled back if the channel is full), and
// the donor itself always holds a reference while donating, so the
// count cannot reach zero while work is still being produced.
type wspool struct {
	tasks   chan *task
	pending atomic.Int64
	idle    atomic.Int64
	stop    atomic.Bool
	// nodes is the global node counter for Options.NodeLimit: shards
	// flush their local counts on the polling cadence and once more when
	// they finish, so the limit is enforced within ~256 nodes per worker.
	nodes     atomic.Int64
	nodeLimit int64

	mu          sync.Mutex
	solution    *Solution
	stats       Stats
	abortSet    bool
	abortStatus Status

	// panicked holds the first panic a worker recovered, re-raised on
	// the caller's goroutine once the pool has drained.
	panicked atomic.Pointer[workerPanic]
}

// workerPanic carries a panic out of a pool worker: the recovered
// value and the stack of the goroutine that raised it, which the
// re-panic on the caller's goroutine would otherwise lose.
type workerPanic struct {
	value any
	stack []byte
}

// Error renders the panic with the worker's stack, so a recover that
// logs the value with %v shows where the search failed.
func (p *workerPanic) Error() string {
	return fmt.Sprintf("core: search worker panicked: %v\n\nworker stack:\n%s", p.value, p.stack)
}

// solveParallel explores the tree below the already-propagated root
// engine with opt.Workers workers and merges the shard outcomes:
// feasible beats any abort (a witness is definitive no matter what
// another shard ran into), a genuine abort (node/time limit, context
// cancellation) beats infeasible, and infeasible requires every shard
// to have exhausted its region. A panic in any shard stops the pool and
// is raised again here, on the caller's goroutine, once every worker
// has returned: the caller's recover (the sweep racer, the server's)
// then fails this one search instead of the process.
func solveParallel(root *engine, opt Options) Result {
	w := &wspool{
		tasks:     make(chan *task, opt.Workers*4),
		nodeLimit: opt.NodeLimit,
	}
	root.pool = w
	w.pending.Store(1)
	w.tasks <- &task{e: root, depth: 0}
	var wg sync.WaitGroup
	for i := 0; i < opt.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.worker()
		}()
	}
	wg.Wait()
	if p := w.panicked.Load(); p != nil {
		panic(p)
	}
	switch {
	case w.solution != nil:
		return Result{Status: StatusFeasible, Solution: w.solution, Stats: w.stats}
	case w.abortSet:
		return Result{Status: w.abortStatus, Stats: w.stats}
	default:
		return Result{Status: StatusInfeasible, Stats: w.stats}
	}
}

// worker drains tasks until the channel closes. The idle count is held
// while blocked on the channel; donors consult it to decide whether
// handing off a subtree buys any parallelism.
func (w *wspool) worker() {
	for {
		w.idle.Add(1)
		t, ok := <-w.tasks
		w.idle.Add(-1)
		if !ok {
			return
		}
		w.runRecovered(t)
		if w.pending.Add(-1) == 0 {
			close(w.tasks)
		}
	}
}

// runRecovered runs one task, turning a panic into a pool stop: the
// first panic is kept for solveParallel to re-raise, the stop flag
// drains the other shards, and the worker goes on to release the
// task's pending reference like any finished task, so the pool
// terminates.
func (w *wspool) runRecovered(t *task) {
	defer func() {
		if r := recover(); r != nil {
			w.panicked.CompareAndSwap(nil, &workerPanic{value: r, stack: debug.Stack()})
			w.stop.Store(true)
		}
	}()
	w.run(t)
}

// run executes one task to completion and records its outcome. Donated
// tasks first apply their branch assignment with the same propagate /
// clique-force / hole-check sequence the sequential loop uses, so the
// shard's per-node work matches what the donor would have done in
// place.
func (w *wspool) run(t *task) {
	if w.stop.Load() {
		return // queued before the pool stopped: nothing explored, nothing to merge
	}
	e := t.e
	st := StatusInfeasible
	if t.branch {
		e.setState(t.dim, t.pair, t.val, confSize)
		e.propagate()
		if e.conflict == noConflict && !e.opt.DisableCliqueForce {
			e.cliqueForcePass()
		}
		if e.conflict == noConflict {
			e.holeCheck()
		}
		if e.conflict != noConflict {
			w.record(e, StatusInfeasible)
			return
		}
	}
	st = e.dfs(t.depth)
	w.record(e, st)
}

// tryDonate offers the not-yet-explored sibling branch (val at
// state[d][p]) to an idle worker, cloning the engine at the current
// node. It returns false — and the donor keeps the branch — when the
// node is too deep, too little work remains, nobody is idle, the pool
// is stopping, or the queue is momentarily full.
func (w *wspool) tryDonate(e *engine, depth, d, p int, val EdgeState) bool {
	if depth > donateMaxDepth || w.stop.Load() || w.idle.Load() == 0 {
		return false
	}
	if donateMinUnknown > 0 {
		rem := 0
		for dd := 0; dd < e.nd; dd++ {
			rem += e.unknown[dd]
		}
		if rem < donateMinUnknown {
			return false
		}
	}
	t := &task{e: e.cloneForWorker(), depth: depth + 1, branch: true, dim: d, pair: p, val: val}
	w.pending.Add(1)
	select {
	case w.tasks <- t:
		return true
	default:
		w.pending.Add(-1)
		return false
	}
}

// poll is the pool hook on the engine's 256-node checkLimits cadence:
// it observes the stop broadcast, flushes the shard's node count into
// the global counter and enforces the global node limit.
func (w *wspool) poll(e *engine) bool {
	if w.stop.Load() {
		e.aborted = StatusCanceled
		e.poolStopped = true
		return false
	}
	total := w.nodes.Add(e.stats.Nodes - e.nodesFlushed)
	e.nodesFlushed = e.stats.Nodes
	if w.nodeLimit > 0 && total >= w.nodeLimit {
		e.aborted = StatusNodeLimit
		return false
	}
	return true
}

// record merges a finished shard into the pool outcome. Shard statuses
// combine as: first feasible wins (and fires Options.OnSolution);
// genuine aborts — not the pool's own stop broadcast — are remembered
// and stop the pool; infeasible shards only contribute statistics.
// The final flush enforces the global node limit too: a donated subtree
// smaller than the polling cadence never polls, so without this check
// a swarm of small shards could run far past the limit. An exhausted
// shard that was the last outstanding task completed the search, and
// keeps its infeasible verdict.
func (w *wspool) record(e *engine, st Status) {
	total := w.nodes.Add(e.stats.Nodes - e.nodesFlushed)
	e.nodesFlushed = e.stats.Nodes
	if st == StatusInfeasible && w.nodeLimit > 0 && total >= w.nodeLimit && w.pending.Load() > 1 {
		st = StatusNodeLimit
	}
	var fire func(*Solution)
	var sol *Solution
	w.mu.Lock()
	w.stats.Add(e.stats)
	switch st {
	case StatusFeasible:
		if w.solution == nil {
			w.solution = e.solution
			sol = e.solution
			fire = e.opt.OnSolution
		}
		w.stop.Store(true)
	case StatusCanceled:
		if !e.poolStopped {
			if !w.abortSet {
				w.abortSet, w.abortStatus = true, st
			}
			w.stop.Store(true)
		}
	case StatusNodeLimit, StatusTimeLimit:
		if !w.abortSet {
			w.abortSet, w.abortStatus = true, st
		}
		w.stop.Store(true)
	}
	w.mu.Unlock()
	if fire != nil {
		fire(sol)
	}
}
