package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fpga3d/internal/wire"
)

// hashDemoInstance builds a small instance with asymmetric structure:
// two tasks share a footprint so only the precedence DAG tells them
// apart, which exercises the WL refinement.
func hashDemoInstance() *Instance {
	return &Instance{
		Name: "hash-demo",
		Tasks: []Task{
			{Name: "a", W: 2, H: 3, Dur: 4},
			{Name: "b", W: 1, H: 1, Dur: 2},
			{Name: "b", W: 1, H: 1, Dur: 2},
			{Name: "c", W: 3, H: 2, Dur: 1},
			{Name: "d", W: 2, H: 2, Dur: 3},
		},
		Prec: []Arc{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4}},
	}
}

// permuted returns the instance with tasks reordered by perm (task i
// moves to position perm[i]) and the precedence arcs remapped to the
// new numbering — the same problem under a different insertion order.
func permuted(in *Instance, perm []int) *Instance {
	out := &Instance{Name: in.Name, Tasks: make([]Task, len(in.Tasks))}
	for i, t := range in.Tasks {
		out.Tasks[perm[i]] = t
	}
	for _, a := range in.Prec {
		out.Prec = append(out.Prec, Arc{From: perm[a.From], To: perm[a.To]})
	}
	return out
}

func TestCanonicalHashInvariantUnderInsertionOrder(t *testing.T) {
	in := hashDemoInstance()
	want := in.CanonicalHash()
	if want == "" || len(want) != 64 {
		t.Fatalf("hash %q is not a hex SHA-256", want)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(in.Tasks))
		shuffled := permuted(in, perm)
		rng.Shuffle(len(shuffled.Prec), func(i, j int) {
			shuffled.Prec[i], shuffled.Prec[j] = shuffled.Prec[j], shuffled.Prec[i]
		})
		if got := shuffled.CanonicalHash(); got != want {
			t.Fatalf("trial %d: hash changed under task permutation %v: %s vs %s",
				trial, perm, got, want)
		}
	}
}

func TestCanonicalHashSurvivesJSONRoundTrip(t *testing.T) {
	in := hashDemoInstance()
	want := in.CanonicalHash()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.CanonicalHash(); got != want {
		t.Fatalf("hash changed across JSON round trip: %s vs %s", got, want)
	}
}

func TestCanonicalHashIgnoresInstanceName(t *testing.T) {
	in := hashDemoInstance()
	renamed := in.Clone()
	renamed.Name = "something else"
	if in.CanonicalHash() != renamed.CanonicalHash() {
		t.Fatal("instance name should not affect the canonical hash")
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := hashDemoInstance()
	want := base.CanonicalHash()

	mutations := map[string]func(*Instance){
		"width":       func(in *Instance) { in.Tasks[1].W++ },
		"height":      func(in *Instance) { in.Tasks[3].H++ },
		"duration":    func(in *Instance) { in.Tasks[0].Dur++ },
		"task name":   func(in *Instance) { in.Tasks[4].Name = "e" },
		"extra task":  func(in *Instance) { in.Tasks = append(in.Tasks, Task{Name: "f", W: 1, H: 1, Dur: 1}) },
		"extra arc":   func(in *Instance) { in.Prec = append(in.Prec, Arc{From: 1, To: 4}) },
		"dropped arc": func(in *Instance) { in.Prec = in.Prec[:len(in.Prec)-1] },
		"flipped arc": func(in *Instance) { in.Prec[0] = Arc{From: in.Prec[0].To, To: in.Prec[0].From} },
		"rewired arc": func(in *Instance) { in.Prec[1].To = 3 },
	}
	for name, mutate := range mutations {
		m := base.Clone()
		mutate(m)
		if got := m.CanonicalHash(); got == want {
			t.Errorf("%s change did not change the hash", name)
		}
	}
}

// TestCanonicalHashSeparatesTwinTasks pins the case plain label
// hashing cannot tell apart: two tasks with identical footprints whose
// precedence roles differ only through refinement depth.
func TestCanonicalHashSeparatesTwinTasks(t *testing.T) {
	// chain: x -> y -> z where x and z share a label.
	chain := &Instance{
		Tasks: []Task{{W: 1, H: 1, Dur: 1}, {W: 2, H: 2, Dur: 2}, {W: 1, H: 1, Dur: 1}},
		Prec:  []Arc{{From: 0, To: 1}, {From: 1, To: 2}},
	}
	// fan: x -> y, x -> z. Same task multiset, same arc count from the
	// same label pair classes at round zero.
	fan := &Instance{
		Tasks: []Task{{W: 1, H: 1, Dur: 1}, {W: 2, H: 2, Dur: 2}, {W: 1, H: 1, Dur: 1}},
		Prec:  []Arc{{From: 0, To: 1}, {From: 0, To: 2}},
	}
	if chain.CanonicalHash() == fan.CanonicalHash() {
		t.Fatal("chain and fan precedence structures hash identically")
	}
}

func TestCanonicalHashEmptyAndNoPrec(t *testing.T) {
	empty := &Instance{}
	if empty.CanonicalHash() == "" {
		t.Fatal("empty instance should still hash")
	}
	in := hashDemoInstance()
	if in.CanonicalHash() == in.WithoutPrec().CanonicalHash() {
		t.Fatal("dropping all precedence arcs should change the hash")
	}
}

// randomLabelledDAG draws a DAG on n tasks whose arcs follow a random
// topological order, each with probability p, and names each task "a"
// or "b". Footprints are all 1×1×1, so only names and arcs tell tasks
// apart.
func randomLabelledDAG(rng *rand.Rand, n int, p float64) *Instance {
	in := &Instance{}
	for i := 0; i < n; i++ {
		in.Tasks = append(in.Tasks, Task{Name: string(rune('a' + rng.Intn(2))), W: 1, H: 1, Dur: 1})
	}
	topo := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				in.Prec = append(in.Prec, Arc{From: topo[i], To: topo[j]})
			}
		}
	}
	return in
}

// mutated returns a copy of in with at most one random edit: a renamed
// task, a dropped arc, or an arc between two incomparable tasks.
func mutated(rng *rand.Rand, in *Instance) *Instance {
	m := in.Clone()
	switch k := rng.Intn(3); {
	case k == 0 || (k == 1 && len(m.Prec) == 0):
		t := &m.Tasks[rng.Intn(m.N())]
		if t.Name == "a" {
			t.Name = "b"
		} else {
			t.Name = "a"
		}
	case k == 1:
		i := rng.Intn(len(m.Prec))
		m.Prec = append(m.Prec[:i], m.Prec[i+1:]...)
	default:
		o, err := m.Order()
		if err != nil {
			panic(err)
		}
		u, v := rng.Intn(m.N()), rng.Intn(m.N())
		if u != v && !o.Precedes(u, v) && !o.Precedes(v, u) {
			m.Prec = append(m.Prec, Arc{From: u, To: v})
		}
	}
	return m
}

// isomorphic reports, by trying all n! relabellings, whether some task
// bijection maps a's labels and arc set onto b's.
func isomorphic(a, b *Instance) bool {
	n := a.N()
	if n != b.N() {
		return false
	}
	arcsA, arcsB := map[Arc]bool{}, map[Arc]bool{}
	for _, e := range a.Prec {
		arcsA[e] = true
	}
	for _, e := range b.Prec {
		arcsB[e] = true
	}
	if len(arcsA) != len(arcsB) {
		return false
	}
	perm, used := make([]int, n), make([]bool, n)
	var try func(k int) bool
	try = func(k int) bool {
		if k == n {
			for e := range arcsA {
				if !arcsB[Arc{From: perm[e.From], To: perm[e.To]}] {
					return false
				}
			}
			return true
		}
		for v := 0; v < n; v++ {
			if !used[v] && a.Tasks[k] == b.Tasks[v] {
				used[v], perm[k] = true, v
				if try(k + 1) {
					return true
				}
				used[v] = false
			}
		}
		return false
	}
	return try(0)
}

// TestCanonicalHashMatchesIsomorphism checks the hash against a brute
// force isomorphism test on small labelled DAGs: each draw is compared
// with a renumbered copy of itself, a renumbered one-edit mutant (both
// isomorphic and not, by symmetry) and an independent draw of the same
// size. Equal digests must hold exactly for the isomorphic pairs.
func TestCanonicalHashMatchesIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	same, differ := 0, 0
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(6)
		a := randomLabelledDAG(rng, n, 0.2+0.5*rng.Float64())
		others := []*Instance{
			permuted(a, rng.Perm(n)),
			permuted(mutated(rng, a), rng.Perm(n)),
			randomLabelledDAG(rng, n, 0.2+0.5*rng.Float64()),
		}
		for k, b := range others {
			iso := isomorphic(a, b)
			if eq := a.CanonicalHash() == b.CanonicalHash(); eq != iso {
				t.Fatalf("trial %d, pair %d: equal digests %v, isomorphic %v\na: %v %v\nb: %v %v",
					trial, k, eq, iso, a.Tasks, a.Prec, b.Tasks, b.Prec)
			}
			if iso {
				same++
			} else {
				differ++
			}
		}
	}
	if same == 0 || differ == 0 {
		t.Fatalf("degenerate corpus: %d isomorphic and %d non-isomorphic pairs", same, differ)
	}
}

// hashTimeBound bounds one hash of a 2 000-task instance below. The
// hashes take about a millisecond on a 2-vCPU host; refinement that
// needs a round per chain position took 2 s on the chain.
const hashTimeBound = 100 * time.Millisecond

// TestCanonicalHashLargeInstancesAreFast hashes a 2 000-task chain of
// unnamed tasks and a 2 000-task layered DAG of identical tasks (40
// layers of 50, each task preceding three of the next layer) within
// hashTimeBound.
func TestCanonicalHashLargeInstancesAreFast(t *testing.T) {
	const n = 2000
	chain := &Instance{Tasks: make([]Task, n)}
	for i := range chain.Tasks {
		chain.Tasks[i] = Task{W: 1, H: 1, Dur: 1}
		if i > 0 {
			chain.Prec = append(chain.Prec, Arc{From: i - 1, To: i})
		}
	}
	const width = 50
	layered := &Instance{Tasks: make([]Task, n)}
	for i := range layered.Tasks {
		layered.Tasks[i] = Task{Name: "m", W: 2, H: 2, Dur: 3}
		if i+width < n {
			for k := 0; k < 3; k++ {
				j := (i/width+1)*width + (i+k*7)%width
				layered.Prec = append(layered.Prec, Arc{From: i, To: j})
			}
		}
	}
	for name, in := range map[string]*Instance{"chain": chain, "layered": layered} {
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		start := time.Now()
		h := in.CanonicalHash()
		if took := time.Since(start); took > hashTimeBound {
			t.Errorf("%s: hashing %d tasks took %v, bound %v", name, n, took, hashTimeBound)
		}
		if p := permuted(in, rand.New(rand.NewSource(1)).Perm(n)); p.CanonicalHash() != h {
			t.Errorf("%s: renumbering changed the hash", name)
		}
	}
}

// TestCanonicalHashInvalidInstances hashes instances Validate rejects:
// they must not panic, and each must hash apart from its valid
// neighbour and from the others.
func TestCanonicalHashInvalidInstances(t *testing.T) {
	base := hashDemoInstance()
	seen := map[string]string{base.CanonicalHash(): "valid"}
	bad := map[string]func(*Instance){
		"cycle":        func(in *Instance) { in.Prec = append(in.Prec, Arc{From: 4, To: 0}) },
		"self arc":     func(in *Instance) { in.Prec = append(in.Prec, Arc{From: 2, To: 2}) },
		"arc past end": func(in *Instance) { in.Prec = append(in.Prec, Arc{From: 1, To: 5}) },
		"negative arc": func(in *Instance) { in.Prec = append(in.Prec, Arc{From: -1, To: 3}) },
		"zero width":   func(in *Instance) { in.Tasks[0].W = 0 },
		"negative dur": func(in *Instance) { in.Tasks[3].Dur = -2 },
	}
	for name, mutate := range bad {
		in := base.Clone()
		mutate(in)
		if in.Validate() == nil {
			t.Fatalf("%s: instance is valid", name)
		}
		h := in.CanonicalHash()
		if prev, ok := seen[h]; ok {
			t.Errorf("%s hashes like %s", name, prev)
		}
		seen[h] = name
	}
}

// hashSink keeps benchmarked hashes live.
var hashSink string

// BenchmarkCanonicalHash times the hash on the five-task demo
// instance and on a 2 000-task chain of unnamed tasks.
func BenchmarkCanonicalHash(b *testing.B) {
	chain := &Instance{Tasks: make([]Task, 2000)}
	for i := range chain.Tasks {
		chain.Tasks[i] = Task{W: 1, H: 1, Dur: 1}
		if i > 0 {
			chain.Prec = append(chain.Prec, Arc{From: i - 1, To: i})
		}
	}
	for _, in := range []*Instance{hashDemoInstance(), chain} {
		b.Run(fmt.Sprintf("n=%d", in.N()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = in.CanonicalHash()
			}
		})
	}
}

// FuzzInstanceCanonical pushes raw bytes through the instance front
// door — ReadInstance, Order, CanonicalHash — where nothing may panic,
// and hashes whatever decodes without validation too (cycles,
// out-of-range arcs). The decoder must accept exactly the inputs
// encoding/json's Decoder accepts with unknown fields disallowed, and
// decode them to a DeepEqual Instance. For every input that decodes to
// a valid instance, the hash must not change under a task permutation
// (arcs remapped, arc order shuffled) or a WriteInstance/ReadInstance
// round trip.
func FuzzInstanceCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := new(Instance)
		err := DecodeInstance(wire.NewDecoder(data), raw)
		var ref Instance
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		refErr := dec.Decode(&ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v", err, refErr)
		}
		if err == nil {
			if !reflect.DeepEqual(*raw, ref) {
				t.Fatalf("decoded %#v, encoding/json decoded %#v", *raw, ref)
			}
			raw.CanonicalHash()
		}
		in, err := ReadInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := in.Order(); err != nil {
			t.Fatalf("valid instance has no order: %v", err)
		}
		want := in.CanonicalHash()

		rng := rand.New(rand.NewSource(int64(len(data))))
		p := permuted(in, rng.Perm(in.N()))
		rng.Shuffle(len(p.Prec), func(i, j int) { p.Prec[i], p.Prec[j] = p.Prec[j], p.Prec[i] })
		if got := p.CanonicalHash(); got != want {
			t.Fatalf("task permutation changed the hash: %s, want %s", got, want)
		}

		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			t.Fatal(err)
		}
		back, err := ReadInstance(&buf)
		if err != nil {
			t.Fatalf("round trip rejected a valid instance: %v", err)
		}
		if got := back.CanonicalHash(); got != want {
			t.Fatalf("round trip changed the hash: %s, want %s", got, want)
		}
	})
}
