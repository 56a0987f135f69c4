package model

import (
	"fmt"

	"fpga3d/internal/graph"
)

// Order is a precedence partial order prepared for the solver: the
// transitive closure of the input arcs together with cached longest-path
// data (earliest start times and tails) under the task durations.
//
// The paper's first preprocessing step — "we compute the transitive
// closure of all data dependencies to allow our algorithm to find
// contradictions to feasible packings already in the input" — happens in
// Instance.Order.
type Order struct {
	n       int
	closure *graph.Digraph
	dur     []int
	est     []int // earliest start = longest duration path strictly before v
	tail    []int // longest duration path strictly after v
	crit    int   // critical path length
}

// newOrder builds the Order of arcs over len(dur) tasks in one
// topological pass. Earliest starts and tails are longest paths over
// the input arcs, which with non-negative durations equal those over
// the closure; the closure is built in reverse topological order.
func newOrder(arcs []Arc, dur []int) (*Order, error) {
	n := len(dur)
	topo, start, next, ok := topoOrder(n, arcs)
	if !ok {
		return nil, fmt.Errorf("model: precedence constraints contain a cycle")
	}
	buf := make([]int, 3*n)
	o := &Order{n: n, dur: buf[:n:n], est: buf[n : 2*n : 2*n], tail: buf[2*n:]}
	copy(o.dur, dur)
	for _, v := range topo {
		for _, w := range next[start[v]:start[v+1]] {
			o.est[w] = max(o.est[w], o.est[v]+dur[v])
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range next[start[v]:start[v+1]] {
			o.tail[v] = max(o.tail[v], o.tail[w]+dur[w])
		}
		o.crit = max(o.crit, o.est[v]+dur[v]+o.tail[v])
	}
	o.closure = graph.ClosureOf(topo, start, next)
	return o, nil
}

// EmptyOrder returns the trivial order with no constraints over n tasks
// with the given durations.
func EmptyOrder(dur []int) *Order {
	o, err := newOrder(nil, dur)
	if err != nil {
		panic(err) // no arcs are always acyclic
	}
	return o
}

// N returns the number of tasks.
func (o *Order) N() int { return o.n }

// Precedes reports whether u must finish before v starts (in the
// transitive closure).
func (o *Order) Precedes(u, v int) bool { return o.closure.HasArc(u, v) }

// Comparable reports whether u and v are related in either direction.
func (o *Order) Comparable(u, v int) bool {
	return o.closure.HasArc(u, v) || o.closure.HasArc(v, u)
}

// Closure returns the transitive closure digraph (shared; do not modify).
func (o *Order) Closure() *graph.Digraph { return o.closure }

// Empty reports whether the order has no constraints.
func (o *Order) Empty() bool { return o.closure.Arcs() == 0 }

// EST returns the earliest start time of v implied by the chains ending
// at v (the head of v).
func (o *Order) EST(v int) int { return o.est[v] }

// Tail returns the total duration of the longest chain starting strictly
// after v.
func (o *Order) Tail(v int) int { return o.tail[v] }

// LFT returns the latest finish time of v for a horizon T: T minus the
// tail of v.
func (o *Order) LFT(v int, T int) int { return T - o.tail[v] }

// CriticalPath returns the maximum total duration over all chains — a
// lower bound on any feasible makespan.
func (o *Order) CriticalPath() int { return o.crit }
