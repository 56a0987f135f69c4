package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// edgeCount counts the edges of g.
func edgeCount(g *Undirected) int {
	m := 0
	for v := 0; v < g.N(); v++ {
		m += g.Neighbors(v).Count()
	}
	return m / 2
}

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(5)
	if g.N() != 5 || edgeCount(g) != 0 {
		t.Fatalf("fresh graph: n=%d m=%d", g.N(), edgeCount(g))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, reversed
	if edgeCount(g) != 1 {
		t.Fatalf("m = %d after duplicate add", edgeCount(g))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(0, 0) {
		t.Fatal("self loop reported")
	}
	if g.Neighbors(0).Count() != 1 || g.Neighbors(2).Count() != 0 {
		t.Fatal("degree wrong")
	}
}

func TestUndirectedSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(2,2) did not panic")
		}
	}()
	NewUndirected(5).AddEdge(2, 2)
}

func TestUndirectedComplement(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := g.Complement()
	if edgeCount(c) != 4 { // K4 has 6 edges; 6-2=4
		t.Fatalf("complement has %d edges, want 4", edgeCount(c))
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if g.HasEdge(u, v) == c.HasEdge(u, v) {
				t.Fatalf("edge {%d,%d} in both or neither", u, v)
			}
		}
	}
	cc := c.Complement()
	for u := 0; u < 4; u++ {
		if !cc.Neighbors(u).Equal(g.Neighbors(u)) {
			t.Fatal("double complement differs from original")
		}
	}
}

func TestUndirectedCloneIndependence(t *testing.T) {
	g := NewUndirected(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone shares adjacency with original")
	}
	if edgeCount(c) != 2 || edgeCount(g) != 1 {
		t.Fatal("edge counts wrong after clone mutation")
	}
}

// TestComplementQuick: on random graphs, {u,v} is an edge of the
// complement iff it is not an edge of g, and the complement of the
// complement is g.
func TestComplementQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g := NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		c := g.Complement()
		cc := c.Complement()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && g.HasEdge(u, v) == c.HasEdge(u, v) {
					return false
				}
			}
			if !cc.Neighbors(u).Equal(g.Neighbors(u)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
