package core

import (
	"math/rand"
	"testing"

	"fpga3d/internal/graph"
	"fpga3d/internal/intgraph"
)

// isInterval reports whether g is an interval graph, by Gilmore and
// Hoffman's characterization: g is chordal and its complement has a
// transitive orientation.
func isInterval(g *graph.Undirected) bool {
	_, err := intgraph.ExtendTransitive(g.Complement(), nil)
	return err == nil && intgraph.IsChordal(g)
}

// TestSolutionsArePackingClasses closes the loop with the theory: for
// random problems, the component graphs induced by the solver's own
// solution coordinates must satisfy C1 (interval graphs), C2 (stable
// sets within capacity) and C3 (no pair overlapping everywhere), and on
// the ordered dimension the realized interval order must extend the
// seeds. This checks Theorem 1's characterization end to end, not just
// geometric validity.
func TestSolutionsArePackingClasses(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		caps := [3]int{2 + rng.Intn(4), 2 + rng.Intn(4), 2 + rng.Intn(5)}
		p := prob(n, caps, func(b int) [3]int {
			return [3]int{
				1 + rng.Intn(caps[0]),
				1 + rng.Intn(caps[1]),
				1 + rng.Intn(caps[2]),
			}
		}, true)
		// Random forward seeds on the ordered time dimension.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.25 {
					p.Seeds = append(p.Seeds, SeedArc{Dim: 2, From: u, To: v})
				}
			}
		}
		r := Solve(p, Options{})
		if r.Status != StatusFeasible {
			continue
		}
		coords := r.Solution.Coords

		// Build the component graphs from the coordinates.
		var gs [3]*graph.Undirected
		for d := 0; d < 3; d++ {
			gs[d] = graph.NewUndirected(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					pu, su := coords[d][u], p.Dims[d].Sizes[u]
					pv, sv := coords[d][v], p.Dims[d].Sizes[v]
					if pu < pv+sv && pv < pu+su {
						gs[d].AddEdge(u, v)
					}
				}
			}
		}
		for d := 0; d < 3; d++ {
			// C1.
			if !isInterval(gs[d]) {
				t.Fatalf("seed %d: G_%d of the solution is not an interval graph", seed, d)
			}
			// C2.
			if _, wt := intgraph.MaxWeightStableSet(gs[d], p.Dims[d].Sizes); wt > p.Dims[d].Cap {
				t.Fatalf("seed %d: stable set of weight %d exceeds capacity %d in dim %d",
					seed, wt, p.Dims[d].Cap, d)
			}
		}
		// C3.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if gs[0].HasEdge(u, v) && gs[1].HasEdge(u, v) && gs[2].HasEdge(u, v) {
					t.Fatalf("seed %d: pair {%d,%d} overlaps in every dimension", seed, u, v)
				}
			}
		}
		// Seeds realized on the time axis.
		for _, a := range p.Seeds {
			if coords[2][a.From]+p.Dims[2].Sizes[a.From] > coords[2][a.To] {
				t.Fatalf("seed %d: arc %d→%d not realized", seed, a.From, a.To)
			}
		}
	}
}

// TestSearchOnlySolutionsArePackingClasses repeats the theory check with
// every stage-3 helper rule disabled, stressing the leaf verification.
func TestSearchOnlySolutionsArePackingClasses(t *testing.T) {
	opt := Options{
		DisableC4Rule:      true,
		DisableCliqueForce: true,
		DisableOrientRules: true,
	}
	for seed := int64(1000); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		caps := [3]int{2 + rng.Intn(3), 2 + rng.Intn(3), 2 + rng.Intn(4)}
		p := prob(n, caps, func(b int) [3]int {
			return [3]int{
				1 + rng.Intn(caps[0]),
				1 + rng.Intn(caps[1]),
				1 + rng.Intn(caps[2]),
			}
		}, true)
		r := Solve(p, opt)
		if r.Status != StatusFeasible {
			continue
		}
		// The coordinates must be in bounds and pairwise conflict-free.
		coords := r.Solution.Coords
		for d := 0; d < 3; d++ {
			for b := 0; b < n; b++ {
				if coords[d][b] < 0 || coords[d][b]+p.Dims[d].Sizes[b] > p.Dims[d].Cap {
					t.Fatalf("seed %d: box %d out of bounds in dim %d", seed, b, d)
				}
			}
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				all := true
				for d := 0; d < 3; d++ {
					pu, su := coords[d][u], p.Dims[d].Sizes[u]
					pv, sv := coords[d][v], p.Dims[d].Sizes[v]
					if pu+su <= pv || pv+sv <= pu {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("seed %d: boxes %d and %d overlap", seed, u, v)
				}
			}
		}
	}
}

// TestDeterminism: the engine is deterministic — identical problems
// produce identical statistics and solutions across runs. Determinism
// matters for reproducible experiments and debugging.
func TestDeterminism(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		caps := [3]int{2 + rng.Intn(4), 2 + rng.Intn(4), 2 + rng.Intn(5)}
		p := prob(n, caps, func(b int) [3]int {
			return [3]int{1 + rng.Intn(caps[0]), 1 + rng.Intn(caps[1]), 1 + rng.Intn(caps[2])}
		}, true)
		r1 := Solve(p, Options{})
		r2 := Solve(p, Options{})
		if r1.Status != r2.Status || r1.Stats != r2.Stats {
			t.Fatalf("seed %d: nondeterministic: %+v vs %+v", seed, r1.Stats, r2.Stats)
		}
		if r1.Status == StatusFeasible {
			for d := range r1.Solution.Coords {
				for b := range r1.Solution.Coords[d] {
					if r1.Solution.Coords[d][b] != r2.Solution.Coords[d][b] {
						t.Fatalf("seed %d: solutions differ", seed)
					}
				}
			}
		}
	}
}
