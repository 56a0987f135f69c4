package graph

// Digraph is a simple directed graph on vertices 0..n-1 with bitset
// out- and in-adjacency rows.
type Digraph struct {
	n    int
	out  []Set
	in   []Set
	arcs int
}

// NewDigraph returns an arcless digraph on n vertices.
func NewDigraph(n int) *Digraph {
	d := &Digraph{n: n, out: make([]Set, n), in: make([]Set, n)}
	for i := 0; i < n; i++ {
		d.out[i] = NewSet(n)
		d.in[i] = NewSet(n)
	}
	return d
}

// N returns the number of vertices.
func (d *Digraph) N() int { return d.n }

// Arcs returns the number of arcs.
func (d *Digraph) Arcs() int { return d.arcs }

// AddArc inserts the arc u→v. Adding an existing arc is a no-op.
func (d *Digraph) AddArc(u, v int) {
	if u == v || d.out[u].Has(v) {
		return
	}
	d.out[u].Add(v)
	d.in[v].Add(u)
	d.arcs++
}

// HasArc reports whether u→v is an arc.
func (d *Digraph) HasArc(u, v int) bool { return d.out[u].Has(v) }

// Out returns the out-neighborhood of v (shared storage; do not modify).
func (d *Digraph) Out(v int) Set { return d.out[v] }

// In returns the in-neighborhood of v (shared storage; do not modify).
func (d *Digraph) In(v int) Set { return d.in[v] }

// Clone returns a deep copy.
func (d *Digraph) Clone() *Digraph {
	c := NewDigraph(d.n)
	for u := 0; u < d.n; u++ {
		c.out[u].CopyFrom(d.out[u])
		c.in[u].CopyFrom(d.in[u])
	}
	c.arcs = d.arcs
	return c
}

// TopoSort returns a topological order of the vertices and true, or nil
// and false if the digraph contains a directed cycle.
func (d *Digraph) TopoSort() ([]int, bool) {
	indeg := make([]int, d.n)
	for v := 0; v < d.n; v++ {
		indeg[v] = d.in[v].Count()
	}
	queue := make([]int, 0, d.n)
	for v := 0; v < d.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, d.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		d.out[v].ForEach(func(w int) {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		})
	}
	if len(order) != d.n {
		return nil, false
	}
	return order, true
}

// IsAcyclic reports whether the digraph has no directed cycle.
func (d *Digraph) IsAcyclic() bool {
	_, ok := d.TopoSort()
	return ok
}

// TransitiveClosure returns a new digraph with an arc u→v whenever v is
// reachable from u by a nonempty directed path in d.
// It requires d to be acyclic only in the sense that cycles yield arcs in
// both directions; callers that need a partial order should check
// IsAcyclic first.
func (d *Digraph) TransitiveClosure() *Digraph {
	c := d.Clone()
	// Floyd–Warshall style closure on bitset rows.
	for k := 0; k < d.n; k++ {
		for u := 0; u < d.n; u++ {
			if c.out[u].Has(k) {
				c.out[u].UnionWith(c.out[k])
			}
		}
	}
	// Rebuild in-sets and arc count.
	res := NewDigraph(d.n)
	for u := 0; u < d.n; u++ {
		c.out[u].ForEach(func(v int) {
			if v != u {
				res.AddArc(u, v)
			}
		})
	}
	return res
}

// ClosureOf returns the transitive closure of the acyclic digraph on
// len(topo) vertices whose arcs run from each v to the vertices in
// succ[start[v]:start[v+1]], given a topological order topo of it. Each
// out-row is built once, in reverse topological order, as the union of
// v's successors and their rows; all rows share one allocation.
func ClosureOf(topo, start, succ []int) *Digraph {
	n := len(topo)
	rows := NewSets(2*n, n)
	d := &Digraph{n: n, out: rows[:n:n], in: rows[n:]}
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range succ[start[v]:start[v+1]] {
			d.out[v].Add(w)
			d.out[v].UnionWith(d.out[w])
		}
	}
	for u := 0; u < n; u++ {
		d.out[u].ForEach(func(v int) {
			d.in[v].Add(u)
			d.arcs++
		})
	}
	return d
}

// IsTransitive reports whether for every pair of arcs u→v, v→w the arc
// u→w is also present.
func (d *Digraph) IsTransitive() bool {
	for u := 0; u < d.n; u++ {
		ok := true
		d.out[u].ForEach(func(v int) {
			if ok && !d.out[v].SubsetOf(d.out[u]) {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// LongestPathFrom computes, for every vertex v, the maximum total weight
// of the vertices on a directed path ending just before v (v excluded).
// In scheduling terms with weight = duration this is the earliest start
// time of v. The digraph must be acyclic; ok is false otherwise.
func (d *Digraph) LongestPathFrom(weight []int) (dist []int, ok bool) {
	order, ok := d.TopoSort()
	if !ok {
		return nil, false
	}
	dist = make([]int, d.n)
	for _, v := range order {
		d.out[v].ForEach(func(w int) {
			if c := dist[v] + weight[v]; c > dist[w] {
				dist[w] = c
			}
		})
	}
	return dist, true
}

// CriticalPath returns the maximum total vertex weight over all directed
// paths (the makespan lower bound of the order). ok is false if cyclic.
func (d *Digraph) CriticalPath(weight []int) (int, bool) {
	est, ok := d.LongestPathFrom(weight)
	if !ok {
		return 0, false
	}
	best := 0
	for v := 0; v < d.n; v++ {
		if c := est[v] + weight[v]; c > best {
			best = c
		}
	}
	return best, true
}
