package intgraph

import (
	"errors"
	"fmt"

	"fpga3d/internal/graph"
)

// ErrNotExtendable is returned when no transitive orientation of the
// graph extends the given seed arcs — either because the graph is not a
// comparability graph at all, or because the seeds conflict with every
// transitive orientation (Figure 5 of the paper shows such a case).
var ErrNotExtendable = errors.New("intgraph: no transitive orientation extends the seed arcs")

// orientState tracks a partial orientation of the edges of a graph.
// dir[u][v] == 1 means the edge {u,v} is oriented u→v.
type orientState struct {
	g   *graph.Undirected
	dir [][]int8
	// queue of arcs whose implications still need processing
	queue [][2]int
}

func newOrientState(g *graph.Undirected) *orientState {
	n := g.N()
	dir := make([][]int8, n)
	for i := range dir {
		dir[i] = make([]int8, n)
	}
	return &orientState{g: g, dir: dir}
}

func (s *orientState) snapshot() [][]int8 {
	n := len(s.dir)
	cp := make([][]int8, n)
	for i := range cp {
		cp[i] = append([]int8(nil), s.dir[i]...)
	}
	return cp
}

func (s *orientState) restore(snap [][]int8) {
	for i := range snap {
		copy(s.dir[i], snap[i])
	}
	s.queue = s.queue[:0]
}

// orient fixes the edge {u,v} as u→v, returning an error on a direct
// orientation conflict. The arc is queued for implication processing.
func (s *orientState) orient(u, v int) error {
	if s.dir[v][u] == 1 {
		return fmt.Errorf("%w: edge {%d,%d} forced in both directions", ErrNotExtendable, u, v)
	}
	if s.dir[u][v] == 1 {
		return nil
	}
	if !s.g.HasEdge(u, v) {
		return fmt.Errorf("%w: transitivity forces orientation of non-edge {%d,%d}", ErrNotExtendable, u, v)
	}
	s.dir[u][v] = 1
	s.queue = append(s.queue, [2]int{u, v})
	return nil
}

// close processes the implication queue to a fixpoint, applying the
// paper's two rules:
//
//	D1 (path implication): edges {u,v}, {u,w} with {v,w} a non-edge must
//	    point the same way relative to u.
//	D2 (transitivity implication): u→v and v→w force u→w; if {u,w} is a
//	    non-edge this is a transitivity conflict.
func (s *orientState) close() error {
	n := s.g.N()
	for len(s.queue) > 0 {
		arc := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		u, v := arc[0], arc[1]

		// D1 around u: edges {u,w} with {v,w} a non-edge follow u→v.
		var err error
		s.g.Neighbors(u).ForEach(func(w int) {
			if err == nil && w != v && !s.g.HasEdge(v, w) {
				err = s.orient(u, w)
			}
		})
		if err != nil {
			return err
		}
		// D1 around v: edges {v,w} with {u,w} a non-edge follow u→v
		// (both must point towards v).
		s.g.Neighbors(v).ForEach(func(w int) {
			if err == nil && w != u && !s.g.HasEdge(u, w) {
				err = s.orient(w, v)
			}
		})
		if err != nil {
			return err
		}
		// D2: u→v plus v→w forces u→w; w→u plus u→v forces w→v.
		for w := 0; w < n; w++ {
			if s.dir[v][w] == 1 {
				if err := s.orient(u, w); err != nil {
					return err
				}
			}
			if s.dir[w][u] == 1 {
				if err := s.orient(w, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ExtendTransitive computes a transitive orientation of g that extends
// the seed arcs (each seed arc must be an edge of g). It returns
// ErrNotExtendable if none exists.
//
// Algorithm: seed orientations are closed under D1/D2. Then, while an
// unoriented edge remains, it is oriented tentatively and the closure is
// recomputed; by Theorem 2 of the paper, if the closure of the current
// partial order is conflict-free, at least one of the two orientations
// of any remaining edge closes without conflict, so a single retry per
// edge suffices — no backtracking across edges is needed.
func ExtendTransitive(g *graph.Undirected, seeds *graph.Digraph) (*graph.Digraph, error) {
	s := newOrientState(g)
	if seeds != nil {
		var err error
		for u := 0; u < seeds.N() && err == nil; u++ {
			seeds.Out(u).ForEach(func(v int) {
				if err == nil {
					err = s.orient(u, v)
				}
			})
		}
		if err != nil {
			return nil, err
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}

	n := g.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) || s.dir[u][v] == 1 || s.dir[v][u] == 1 {
				continue
			}
			snap := s.snapshot()
			err := s.orient(u, v)
			if err == nil {
				err = s.close()
			}
			if err != nil {
				s.restore(snap)
				if err := s.orient(v, u); err != nil {
					return nil, err
				}
				if err := s.close(); err != nil {
					return nil, err
				}
			}
		}
	}

	out := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if s.dir[u][v] == 1 {
				out.AddArc(u, v)
			}
		}
	}
	// Defensive verification: a successful run must produce a transitive
	// acyclic orientation; anything else is a bug, but we fail soft.
	if !out.IsTransitive() || !out.IsAcyclic() {
		return nil, fmt.Errorf("%w: internal closure produced a non-transitive orientation", ErrNotExtendable)
	}
	return out, nil
}
