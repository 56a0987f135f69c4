package model

import (
	"bytes"
	"math/rand"
	"testing"
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

// FuzzInstanceCanonical pushes raw bytes through the instance front
// door — ReadInstance, Order, CanonicalHash — where nothing may panic.
// For every input that decodes to a valid instance, the hash must not
// change under a task permutation (arcs remapped, arc order shuffled)
// or a WriteInstance/ReadInstance round trip.
func FuzzInstanceCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
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
