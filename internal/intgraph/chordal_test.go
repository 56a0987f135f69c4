package intgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpga3d/internal/graph"
)

func cycle(n int) *graph.Undirected {
	g := graph.NewUndirected(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func complete(n int) *graph.Undirected {
	g := graph.NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func path(n int) *graph.Undirected {
	g := graph.NewUndirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// intervalGraph builds the intersection graph of the given closed-open
// intervals [s, s+l).
func intervalGraph(starts, lengths []int) *graph.Undirected {
	n := len(starts)
	g := graph.NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if starts[u] < starts[v]+lengths[v] && starts[v] < starts[u]+lengths[u] {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestIsChordalKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Undirected
		want bool
	}{
		{"empty", graph.NewUndirected(5), true},
		{"single", graph.NewUndirected(1), true},
		{"path5", path(5), true},
		{"K5", complete(5), true},
		{"triangle", cycle(3), true},
		{"C4", cycle(4), false},
		{"C5", cycle(5), false},
		{"C6", cycle(6), false},
		{"C7", cycle(7), false},
	}
	for _, tc := range cases {
		if got := IsChordal(tc.g); got != tc.want {
			t.Errorf("IsChordal(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChordedCycleIsChordal(t *testing.T) {
	// C5 plus chords from vertex 0 to everything: a fan — chordal.
	g := cycle(5)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if !IsChordal(g) {
		t.Fatal("fan over C5 should be chordal")
	}
	// C6 with one long chord still contains a C4 and a C4': not chordal.
	g6 := cycle(6)
	g6.AddEdge(0, 3)
	if IsChordal(g6) {
		t.Fatal("C6 + one chord is not chordal")
	}
}

// bruteForceChordal checks chordality by enumerating vertex subsets and
// testing whether any induces a cycle without chords (subsets of size ≥ 4
// inducing a connected 2-regular graph).
func bruteForceChordal(g *graph.Undirected) bool {
	n := g.N()
	for mask := 0; mask < 1<<n; mask++ {
		var vs []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) < 4 {
			continue
		}
		// Induced subgraph is a chordless cycle iff every vertex has
		// induced degree exactly 2 and the subgraph is connected.
		deg := map[int]int{}
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				if g.HasEdge(vs[i], vs[j]) {
					deg[vs[i]]++
					deg[vs[j]]++
				}
			}
		}
		ok := true
		for _, v := range vs {
			if deg[v] != 2 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// connectivity
		seen := map[int]bool{vs[0]: true}
		stack := []int{vs[0]}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range vs {
				if !seen[y] && g.HasEdge(x, y) {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		if len(seen) == len(vs) {
			return false // found an induced chordless cycle
		}
	}
	return true
}

func TestIsChordalQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5) // 4..8
		g := graph.NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		return IsChordal(g) == bruteForceChordal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalGraphsAreChordalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		starts := make([]int, n)
		lengths := make([]int, n)
		for i := range starts {
			starts[i] = rng.Intn(20)
			lengths[i] = 1 + rng.Intn(8)
		}
		g := intervalGraph(starts, lengths)
		return isInterval(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// isInterval reports whether g is an interval graph, by Gilmore and
// Hoffman's characterization: g is chordal and its complement has a
// transitive orientation.
func isInterval(g *graph.Undirected) bool {
	_, err := ExtendTransitive(g.Complement(), nil)
	return err == nil && IsChordal(g)
}

func TestIsIntervalKnownGraphs(t *testing.T) {
	if isInterval(cycle(4)) {
		t.Fatal("C4 is not an interval graph")
	}
	if !isInterval(path(6)) {
		t.Fatal("P6 is an interval graph")
	}
	if !isInterval(complete(6)) {
		t.Fatal("K6 is an interval graph")
	}
	// The claw K1,3 is interval; the net and the 3-sun are not needed
	// here, but the asteroidal-triple witness T2 (subdivided claw) is a
	// chordal non-interval graph: center 0, legs 1-4, 2-5, 3-6.
	at := graph.NewUndirected(7)
	at.AddEdge(0, 1)
	at.AddEdge(0, 2)
	at.AddEdge(0, 3)
	at.AddEdge(1, 4)
	at.AddEdge(2, 5)
	at.AddEdge(3, 6)
	if !IsChordal(at) {
		t.Fatal("subdivided claw is chordal (a tree)")
	}
	if isInterval(at) {
		t.Fatal("subdivided claw is not an interval graph")
	}
}

func TestMCSOrderIsPermutation(t *testing.T) {
	g := cycle(6)
	order := MCSOrder(g)
	seen := make([]bool, 6)
	for _, v := range order {
		if v < 0 || v >= 6 || seen[v] {
			t.Fatalf("MCS order %v is not a permutation", order)
		}
		seen[v] = true
	}
}
