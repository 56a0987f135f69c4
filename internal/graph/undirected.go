package graph

import "fmt"

// Undirected is a simple undirected graph on vertices 0..n-1 with bitset
// adjacency rows. Self-loops are not allowed.
type Undirected struct {
	n   int
	adj []Set
}

// NewUndirected returns an edgeless graph on n vertices.
func NewUndirected(n int) *Undirected {
	return &Undirected{n: n, adj: NewSets(n, n)}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// AddEdge inserts the edge {u, v}. Adding an existing edge is a no-op;
// adding a self-loop panics (it always indicates a logic error upstream).
func (g *Undirected) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Undirected) HasEdge(u, v int) bool { return u != v && g.adj[u].Has(v) }

// Neighbors returns the adjacency set of v. The returned set is shared
// with the graph; callers must not modify it.
func (g *Undirected) Neighbors(v int) Set { return g.adj[v] }

// Clone returns a deep copy of the graph.
func (g *Undirected) Clone() *Undirected {
	c := &Undirected{n: g.n, adj: make([]Set, g.n)}
	for i := range g.adj {
		c.adj[i] = g.adj[i].Clone()
	}
	return c
}

// Complement returns the complement graph: {u,v} is an edge of the result
// iff u ≠ v and {u,v} is not an edge of g.
func (g *Undirected) Complement() *Undirected {
	c := NewUndirected(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.HasEdge(u, v) {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}
