package model

import (
	"math/rand"
	"testing"

	"fpga3d/internal/graph"
)

func TestOrderChain(t *testing.T) {
	// 0(3) → 1(2) → 2(5)
	o, err := newOrder([]Arc{{0, 1}, {1, 2}}, []int{3, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if o.CriticalPath() != 10 {
		t.Fatalf("critical path = %d, want 10", o.CriticalPath())
	}
	if o.EST(0) != 0 || o.EST(1) != 3 || o.EST(2) != 5 {
		t.Fatalf("EST = %d %d %d", o.EST(0), o.EST(1), o.EST(2))
	}
	if o.Tail(0) != 7 || o.Tail(1) != 5 || o.Tail(2) != 0 {
		t.Fatalf("tails = %d %d %d", o.Tail(0), o.Tail(1), o.Tail(2))
	}
	if o.LFT(0, 12) != 5 || o.LFT(2, 12) != 12 {
		t.Fatalf("LFT = %d %d", o.LFT(0, 12), o.LFT(2, 12))
	}
	// Transitive closure: 0 precedes 2.
	if !o.Precedes(0, 2) || o.Precedes(2, 0) {
		t.Fatal("closure wrong")
	}
	if !o.Comparable(0, 2) || !o.Comparable(2, 0) {
		t.Fatal("Comparable should be symmetric")
	}
	if o.Empty() {
		t.Fatal("non-empty order reported empty")
	}
	if o.N() != 3 {
		t.Fatalf("N = %d", o.N())
	}
}

func TestOrderRejectsCycle(t *testing.T) {
	if _, err := newOrder([]Arc{{0, 1}, {1, 0}}, []int{1, 1}); err == nil {
		t.Fatal("cyclic order accepted")
	}
}

func TestEmptyOrder(t *testing.T) {
	o := EmptyOrder([]int{4, 7, 2})
	if !o.Empty() {
		t.Fatal("empty order reported non-empty")
	}
	// With no constraints the critical path is the longest single task.
	if o.CriticalPath() != 7 {
		t.Fatalf("critical path = %d, want 7", o.CriticalPath())
	}
	for v := 0; v < 3; v++ {
		if o.EST(v) != 0 || o.Tail(v) != 0 {
			t.Fatalf("task %d has nonzero window", v)
		}
	}
	if o.Comparable(0, 1) {
		t.Fatal("empty order relates tasks")
	}
}

func TestInstanceOrderDiamond(t *testing.T) {
	in := &Instance{
		Tasks: []Task{
			{W: 1, H: 1, Dur: 2}, // 0
			{W: 1, H: 1, Dur: 3}, // 1
			{W: 1, H: 1, Dur: 4}, // 2
			{W: 1, H: 1, Dur: 1}, // 3
		},
		Prec: []Arc{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
	o, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	if o.CriticalPath() != 2+4+1 {
		t.Fatalf("critical path = %d", o.CriticalPath())
	}
	if o.EST(3) != 6 {
		t.Fatalf("EST(3) = %d", o.EST(3))
	}
	if !o.Precedes(0, 3) {
		t.Fatal("closure missing 0→3")
	}
}

// refOrder is the construction Instance.Order replaced, kept as the
// reference: an acyclicity check, a Floyd–Warshall style closure and
// longest paths over the closure.
func refOrder(prec *graph.Digraph, dur []int) (cl *graph.Digraph, est, tail []int, crit int, ok bool) {
	if !prec.IsAcyclic() {
		return nil, nil, nil, 0, false
	}
	cl = prec.TransitiveClosure()
	est, _ = cl.LongestPathFrom(dur)
	tail = longestPathTo(cl, dur)
	for v := range dur {
		crit = max(crit, est[v]+dur[v]+tail[v])
	}
	return cl, est, tail, crit, true
}

// longestPathTo returns, for every vertex v of the acyclic digraph d,
// the maximum total weight of the vertices on a directed path starting
// just after v (v excluded): the tail of v.
func longestPathTo(d *graph.Digraph, weight []int) []int {
	order, _ := d.TopoSort()
	tail := make([]int, d.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		d.Out(v).ForEach(func(w int) {
			tail[v] = max(tail[v], tail[w]+weight[w])
		})
	}
	return tail
}

// randomArcs draws arcs over n tasks: forward along a random
// permutation (a DAG), with repeated and self arcs, and with back arcs
// too when cyclic is set.
func randomArcs(rng *rand.Rand, n int, p float64, cyclic bool) []Arc {
	perm := rng.Perm(n)
	var arcs []Arc
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				arcs = append(arcs, Arc{From: perm[i], To: perm[j]})
			}
		}
	}
	for k := 0; k < len(arcs)/8; k++ {
		arcs = append(arcs, arcs[rng.Intn(len(arcs))]) // repeat an arc
	}
	if n > 0 && rng.Intn(4) == 0 {
		v := rng.Intn(n)
		arcs = append(arcs, Arc{From: v, To: v})
	}
	if cyclic && len(arcs) > 0 {
		a := arcs[rng.Intn(len(arcs))]
		arcs = append(arcs, Arc{From: a.To, To: a.From})
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	return arcs
}

// TestNewOrderMatchesReference holds the one-pass construction to
// refOrder on random DAGs (more than 64 tasks included, so the closure
// rows span several words) with non-negative durations, through
// Instance.Order: the same closure, in- and out-rows, arc count,
// earliest starts, tails and critical path, and the same rejection of
// cycles.
func TestNewOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(24)
		if iter%10 == 0 {
			n = 60 + rng.Intn(80)
		}
		arcs := randomArcs(rng, n, rng.Float64()*0.4, iter%5 == 4)
		dur := make([]int, n)
		for v := range dur {
			dur[v] = rng.Intn(6) // zero included: only non-negativity is assumed
		}
		prec := graph.NewDigraph(n)
		for _, a := range arcs {
			prec.AddArc(a.From, a.To)
		}
		cl, est, tail, crit, ok := refOrder(prec, dur)
		in := &Instance{Tasks: make([]Task, n), Prec: arcs}
		for v := range in.Tasks {
			in.Tasks[v] = Task{W: 1, H: 1, Dur: dur[v]}
		}
		o, err := in.Order()
		if (err == nil) != ok {
			t.Fatalf("iter %d: reference acyclic %v, Order error %v", iter, ok, err)
		}
		if !ok {
			continue
		}
		got := o.Closure()
		if got.N() != n || got.Arcs() != cl.Arcs() || o.N() != n {
			t.Fatalf("iter %d: %d vertices %d arcs, reference %d arcs", iter, got.N(), got.Arcs(), cl.Arcs())
		}
		for v := 0; v < n; v++ {
			if !got.Out(v).Equal(cl.Out(v)) || !got.In(v).Equal(cl.In(v)) {
				t.Fatalf("iter %d: task %d out %v in %v, reference out %v in %v",
					iter, v, got.Out(v), got.In(v), cl.Out(v), cl.In(v))
			}
			if o.EST(v) != est[v] || o.Tail(v) != tail[v] {
				t.Fatalf("iter %d: task %d est %d tail %d, reference %d %d",
					iter, v, o.EST(v), o.Tail(v), est[v], tail[v])
			}
		}
		if o.CriticalPath() != crit {
			t.Fatalf("iter %d: critical path %d, reference %d", iter, o.CriticalPath(), crit)
		}
	}
}

// BenchmarkNewOrder times Instance.Order, the per-question preparation
// of the precedence relation, on a 40-task random DAG.
func BenchmarkNewOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := &Instance{Tasks: make([]Task, 40), Prec: randomArcs(rng, 40, 0.1, false)}
	for v := range in.Tasks {
		in.Tasks[v] = Task{W: 1, H: 1, Dur: 1 + rng.Intn(5)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Order(); err != nil {
			b.Fatal(err)
		}
	}
}
