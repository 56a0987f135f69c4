package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(0, 1) // duplicate
	d.AddArc(1, 1) // self arc ignored
	if d.Arcs() != 1 {
		t.Fatalf("Arcs = %d, want 1", d.Arcs())
	}
	if !d.HasArc(0, 1) || d.HasArc(1, 0) {
		t.Fatal("arc direction wrong")
	}
	if !d.Out(0).Has(1) || !d.In(1).Has(0) {
		t.Fatal("out/in sets inconsistent")
	}
}

func TestTopoSort(t *testing.T) {
	d := NewDigraph(5)
	d.AddArc(0, 2)
	d.AddArc(1, 2)
	d.AddArc(2, 3)
	d.AddArc(3, 4)
	order, ok := d.TopoSort()
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for u := 0; u < 5; u++ {
		d.Out(u).ForEach(func(v int) {
			if pos[u] >= pos[v] {
				t.Fatalf("topo order violates arc %d→%d", u, v)
			}
		})
	}

	d.AddArc(4, 0) // close a cycle
	if _, ok := d.TopoSort(); ok {
		t.Fatal("cycle not detected")
	}
	if d.IsAcyclic() {
		t.Fatal("IsAcyclic true on cyclic digraph")
	}
}

func TestTransitiveClosure(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(2, 3)
	c := d.TransitiveClosure()
	want := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if c.Arcs() != len(want) {
		t.Fatalf("closure has %d arcs, want %d", c.Arcs(), len(want))
	}
	for _, a := range want {
		if !c.HasArc(a[0], a[1]) {
			t.Fatalf("closure missing %v", a)
		}
	}
	if !c.IsTransitive() {
		t.Fatal("closure not transitive")
	}
	if d.IsTransitive() {
		t.Fatal("chain 0→1→2→3 reported transitive")
	}
}

func TestClosureQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		d := NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					d.AddArc(u, v) // forward arcs only: always a DAG
				}
			}
		}
		c := d.TransitiveClosure()
		// Closure is idempotent and transitive.
		if !c.IsTransitive() {
			return false
		}
		cc := c.TransitiveClosure()
		for v := 0; v < n; v++ {
			if !cc.Out(v).Equal(c.Out(v)) {
				return false
			}
		}
		// Reachability agrees with BFS on the original.
		for s := 0; s < n; s++ {
			reach := NewSet(n)
			stack := []int{s}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				d.Out(x).ForEach(func(y int) {
					if !reach.Has(y) {
						reach.Add(y)
						stack = append(stack, y)
					}
				})
			}
			if !reach.Equal(c.Out(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLongestPaths(t *testing.T) {
	// Diamond: 0→1→3, 0→2→3 with weights 2,5,3,1.
	d := NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(0, 2)
	d.AddArc(1, 3)
	d.AddArc(2, 3)
	w := []int{2, 5, 3, 1}

	est, ok := d.LongestPathFrom(w)
	if !ok {
		t.Fatal("acyclic digraph rejected")
	}
	if est[0] != 0 || est[1] != 2 || est[2] != 2 || est[3] != 7 {
		t.Fatalf("EST = %v", est)
	}
	cp, _ := d.CriticalPath(w)
	if cp != 8 { // 0(2) → 1(5) → 3(1)
		t.Fatalf("critical path = %d, want 8", cp)
	}

	d.AddArc(3, 0)
	if _, ok := d.LongestPathFrom(w); ok {
		t.Fatal("cycle accepted by LongestPathFrom")
	}
	if _, ok := d.CriticalPath(w); ok {
		t.Fatal("cycle accepted by CriticalPath")
	}
}

func TestDigraphClone(t *testing.T) {
	d := NewDigraph(3)
	d.AddArc(0, 1)
	c := d.Clone()
	c.AddArc(1, 2)
	if d.HasArc(1, 2) || d.Arcs() != 1 || c.Arcs() != 2 {
		t.Fatal("clone shares storage")
	}
}
