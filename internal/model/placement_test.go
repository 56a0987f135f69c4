package model

import (
	"strings"
	"testing"
)

func placedDemo() (*Instance, *Placement, Container) {
	in := &Instance{
		Tasks: []Task{
			{Name: "a", W: 2, H: 2, Dur: 2},
			{Name: "b", W: 2, H: 2, Dur: 2},
			{Name: "c", W: 1, H: 1, Dur: 1},
		},
		Prec: []Arc{{From: 0, To: 2}},
	}
	p := &Placement{
		X: []int{0, 2, 0},
		Y: []int{0, 0, 0},
		S: []int{0, 0, 2},
	}
	return in, p, Container{W: 4, H: 4, T: 4}
}

func order(t *testing.T, in *Instance) *Order {
	t.Helper()
	o, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestVerifyOK(t *testing.T) {
	in, p, c := placedDemo()
	if err := p.Verify(in, c, order(t, in)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Placement, *Instance, *Container)
	}{
		{"size mismatch", func(p *Placement, in *Instance, c *Container) { p.X = p.X[:2] }},
		{"negative coordinate", func(p *Placement, in *Instance, c *Container) { p.Y[1] = -1 }},
		{"out of width", func(p *Placement, in *Instance, c *Container) { p.X[1] = 3 }},
		{"out of horizon", func(p *Placement, in *Instance, c *Container) { p.S[2] = 4 }},
		{"spatial+temporal overlap", func(p *Placement, in *Instance, c *Container) { p.X[1] = 1 }},
		{"precedence violated", func(p *Placement, in *Instance, c *Container) { p.S[2] = 1; p.X[2] = 3; p.Y[2] = 3 }},
	}
	for _, tc := range cases {
		in, p, c := placedDemo()
		tc.mut(p, in, &c)
		if err := p.Verify(in, c, order(t, in)); err == nil {
			t.Errorf("%s: Verify accepted invalid placement", tc.name)
		}
	}
}

func TestVerifyNilOrderSkipsPrecedence(t *testing.T) {
	in, p, c := placedDemo()
	p.S[2] = 1
	p.X[2] = 3
	p.Y[2] = 3 // violates 0→2 but is geometrically fine
	if err := p.Verify(in, c, nil); err != nil {
		t.Fatalf("nil order should skip precedence: %v", err)
	}
}

func TestTimeOnlyOverlapIsFine(t *testing.T) {
	// Two tasks sharing time but not space, and sharing space but not time.
	in := &Instance{Tasks: []Task{{W: 2, H: 2, Dur: 2}, {W: 2, H: 2, Dur: 2}}}
	p := &Placement{X: []int{0, 0}, Y: []int{0, 0}, S: []int{0, 2}}
	if err := p.Verify(in, Container{W: 2, H: 2, T: 4}, nil); err != nil {
		t.Fatalf("sequential reuse of the same cells rejected: %v", err)
	}
	p = &Placement{X: []int{0, 2}, Y: []int{0, 0}, S: []int{0, 0}}
	if err := p.Verify(in, Container{W: 4, H: 2, T: 2}, nil); err != nil {
		t.Fatalf("side-by-side concurrent tasks rejected: %v", err)
	}
}

func TestMakespanAndSchedule(t *testing.T) {
	in, p, _ := placedDemo()
	if got := p.Makespan(in); got != 3 {
		t.Fatalf("Makespan = %d, want 3", got)
	}
	s := p.Schedule()
	s[0] = 99
	if p.S[0] == 99 {
		t.Fatal("Schedule shares storage")
	}
}

func TestVerifySchedule(t *testing.T) {
	in, p, _ := placedDemo()
	o := order(t, in)
	if err := VerifySchedule(in, p.S, 4, o); err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(in, []int{0, 0}, 4, o); err == nil {
		t.Fatal("wrong length accepted")
	}
	if err := VerifySchedule(in, []int{0, 0, 1}, 4, o); err == nil {
		t.Fatal("precedence violation accepted")
	}
	if err := VerifySchedule(in, []int{0, 3, 2}, 4, o); err == nil {
		t.Fatal("horizon violation accepted")
	}
}

func TestCloneAndNewPlacement(t *testing.T) {
	p := NewPlacement(3)
	if len(p.X) != 3 || len(p.Y) != 3 || len(p.S) != 3 {
		t.Fatal("NewPlacement sizes wrong")
	}
	p.X[0] = 7
	c := p.Clone()
	c.X[0] = 8
	if p.X[0] != 7 {
		t.Fatal("Clone shares storage")
	}
}

func TestRenderers(t *testing.T) {
	in, p, c := placedDemo()
	table := p.Table(in)
	for _, want := range []string{"a", "b", "c", "start"} {
		if !strings.Contains(table, want) {
			t.Fatalf("Table missing %q:\n%s", want, table)
		}
	}
	g := p.Gantt(in)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 4 { // header + 3 tasks
		t.Fatalf("Gantt has %d lines:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], "##.") {
		t.Fatalf("task a bar wrong: %q", lines[1])
	}
	if !strings.Contains(lines[3], "..#") {
		t.Fatalf("task c bar wrong: %q", lines[3])
	}

	f := p.FrameAt(in, c, 0)
	if !strings.Contains(f, "aabb") {
		t.Fatalf("FrameAt(0) missing concurrent a and b:\n%s", f)
	}
	f2 := p.FrameAt(in, c, 2)
	if strings.Contains(f2, "a") || !strings.Contains(f2, "c") {
		t.Fatalf("FrameAt(2) wrong:\n%s", f2)
	}

	// Unnamed tasks get synthetic names.
	anon := &Instance{Tasks: []Task{{W: 1, H: 1, Dur: 1}}}
	pt := NewPlacement(1)
	if !strings.Contains(pt.Table(anon), "task0") || !strings.Contains(pt.Gantt(anon), "task0") {
		t.Fatal("anonymous task not labeled")
	}
}

// refVerify is the brute-force reference for Verify: every box inside
// the container, a cell-by-cycle occupancy count that never exceeds
// one, and every direct precedence arc finished before its successor
// starts (with positive durations the transitive ones follow).
func refVerify(in *Instance, c Container, p *Placement) bool {
	occ := make([]int, c.W*c.H*c.T)
	for i, t := range in.Tasks {
		if p.X[i] < 0 || p.Y[i] < 0 || p.S[i] < 0 || p.X[i]+t.W > c.W || p.Y[i]+t.H > c.H || p.S[i]+t.Dur > c.T {
			return false
		}
		for s := p.S[i]; s < p.S[i]+t.Dur; s++ {
			for y := p.Y[i]; y < p.Y[i]+t.H; y++ {
				for x := p.X[i]; x < p.X[i]+t.W; x++ {
					if occ[(s*c.H+y)*c.W+x]++; occ[(s*c.H+y)*c.W+x] > 1 {
						return false
					}
				}
			}
		}
	}
	for _, a := range in.Prec {
		if p.S[a.From]+in.Tasks[a.From].Dur > p.S[a.To] {
			return false
		}
	}
	return true
}

// FuzzPlacementVerify checks Placement.Verify, the check every feasible
// answer passes on its way out, against refVerify. The first three
// bytes give the container (sides 1–6); each further group of seven
// gives a task's size (1–3 per side), its corner (−1..6 per axis) and,
// bit by bit, its arcs to the tasks after it.
func FuzzPlacementVerify(f *testing.F) {
	// A 4×4×2 container; two 2×2×1 tasks on the same cells, the
	// second after the first: valid with the arc, then overlapping.
	f.Add([]byte{3, 3, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 2, 0})
	f.Add([]byte{3, 3, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c := Container{W: 1 + int(data[0]%6), H: 1 + int(data[1]%6), T: 1 + int(data[2]%6)}
		in := &Instance{Name: "fuzz"}
		p := &Placement{}
		var arcs []byte
		for b := data[3:]; len(b) >= 7 && len(in.Tasks) < 6; b = b[7:] {
			in.Tasks = append(in.Tasks, Task{Name: string(rune('a' + len(in.Tasks))), W: 1 + int(b[0]%3), H: 1 + int(b[1]%3), Dur: 1 + int(b[2]%3)})
			p.X, p.Y, p.S = append(p.X, int(b[3]%8)-1), append(p.Y, int(b[4]%8)-1), append(p.S, int(b[5]%8)-1)
			arcs = append(arcs, b[6])
		}
		for u, bits := range arcs {
			for v := u + 1; v < len(arcs); v++ {
				if bits>>(v-u-1)&1 != 0 {
					in.Prec = append(in.Prec, Arc{From: u, To: v})
				}
			}
		}
		o := order(t, in)
		err := p.Verify(in, c, o)
		if want := refVerify(in, c, p); (err == nil) != want {
			t.Fatalf("Verify says %v, reference says valid=%v (container %v, tasks %v, placement %+v, arcs %v)", err, want, c, in.Tasks, p, in.Prec)
		}
	})
}
