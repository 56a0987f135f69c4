package fpga3d

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

func buildQuickstart() *Instance {
	in := NewInstance("api-test")
	m1 := in.AddTask("mul1", 16, 16, 2)
	m2 := in.AddTask("mul2", 16, 16, 2)
	add := in.AddTask("add", 16, 1, 1)
	cmp := in.AddTask("cmp", 16, 1, 1)
	in.AddPrecedence(m1, add)
	in.AddPrecedence(m2, add)
	in.AddPrecedence(add, cmp)
	return in
}

func TestBuilderAccessors(t *testing.T) {
	in := buildQuickstart()
	if in.Name() != "api-test" || in.NumTasks() != 4 {
		t.Fatalf("name/count wrong: %q %d", in.Name(), in.NumTasks())
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	tasks := in.Tasks()
	if tasks[0].Name != "mul1" || tasks[3].Name != "cmp" {
		t.Fatalf("Tasks() = %+v", tasks)
	}
	tasks[0].W = 99 // copy, not shared
	if in.Tasks()[0].W == 99 {
		t.Fatal("Tasks() shares storage")
	}
	prec := in.Precedences()
	if len(prec) != 3 || prec[0] != [2]TaskID{0, 2} {
		t.Fatalf("Precedences() = %v", prec)
	}
	cp, err := in.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 4 {
		t.Fatalf("critical path = %d, want 4", cp)
	}
	if got, _ := in.WithoutPrecedence().CriticalPath(); got != 2 {
		t.Fatalf("unconstrained critical path = %d, want 2", got)
	}
}

func TestSolveAndOptimize(t *testing.T) {
	in := buildQuickstart()
	opt := &Options{TimeLimit: 60 * time.Second}

	res, err := Solve(in, Chip{W: 32, H: 32, T: 4}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Feasible {
		t.Fatalf("32x32x4: %v", res.Decision)
	}
	if err := in.VerifyPlacement(res.Placement, Chip{W: 32, H: 32, T: 4}); err != nil {
		t.Fatal(err)
	}

	minT, err := MinimizeTime(in, 32, 32, opt)
	if err != nil {
		t.Fatal(err)
	}
	if minT.Decision != Feasible || minT.Value != 4 {
		t.Fatalf("MinimizeTime = %d (%v), want 4", minT.Value, minT.Decision)
	}
	minH, err := MinimizeChip(in, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if minH.Decision != Feasible || minH.Value != 32 {
		t.Fatalf("MinimizeChip = %d (%v), want 32", minH.Value, minH.Decision)
	}
	// With 6 cycles the multipliers can serialize on a 16×16 chip.
	minH6, err := MinimizeChip(in, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if minH6.Value != 16 {
		t.Fatalf("MinimizeChip(T=6) = %d, want 16", minH6.Value)
	}
}

func TestFixedScheduleAPI(t *testing.T) {
	in := buildQuickstart()
	starts := []int{0, 0, 2, 3}
	res, err := FixedSchedule(in, Chip{W: 32, H: 32, T: 4}, starts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Feasible {
		t.Fatalf("fixed schedule: %v", res.Decision)
	}
	opt, err := MinimizeChipFixedSchedule(in, starts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Decision != Feasible || opt.Value != 32 {
		t.Fatalf("MinimizeChipFixedSchedule = %d (%v), want 32", opt.Value, opt.Decision)
	}
	// Length mismatches are rejected before solving.
	if _, err := FixedSchedule(in, Chip{W: 32, H: 32, T: 4}, []int{0}, nil); err == nil {
		t.Fatal("short schedule accepted")
	}
	if _, err := MinimizeChipFixedSchedule(in, []int{0}, nil); err == nil {
		t.Fatal("short schedule accepted")
	}
}

func TestParetoAPI(t *testing.T) {
	pts, err := Pareto(BenchmarkDE(), &Options{TimeLimit: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := []ParetoPoint{{T: 6, H: 32}, {T: 13, H: 17}, {T: 14, H: 16}}
	if len(pts) != len(want) {
		t.Fatalf("Pareto = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("Pareto = %v, want %v", pts, want)
		}
	}
}

func TestJSONRoundTripAPI(t *testing.T) {
	in := buildQuickstart()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != in.NumTasks() || len(back.Precedences()) != len(in.Precedences()) {
		t.Fatal("round trip mismatch")
	}
}

func TestBenchmarkConstructors(t *testing.T) {
	de := BenchmarkDE()
	if err := de.Validate(); err != nil {
		t.Fatal(err)
	}
	if de.NumTasks() != 11 {
		t.Fatalf("DE tasks = %d", de.NumTasks())
	}
	vc := BenchmarkVideoCodec()
	if err := vc.Validate(); err != nil {
		t.Fatal(err)
	}
	if cp, _ := vc.CriticalPath(); cp != 59 {
		t.Fatalf("codec critical path = %d", cp)
	}
}

func TestInvalidInstanceErrors(t *testing.T) {
	in := NewInstance("bad")
	if _, err := Solve(in, Chip{W: 4, H: 4, T: 4}, nil); err == nil {
		t.Fatal("empty instance accepted by Solve")
	}
	if _, err := MinimizeTime(in, 4, 4, nil); err == nil {
		t.Fatal("empty instance accepted by MinimizeTime")
	}
	if _, err := MinimizeChip(in, 4, nil); err == nil {
		t.Fatal("empty instance accepted by MinimizeChip")
	}
	if _, err := Pareto(in, nil); err == nil {
		t.Fatal("empty instance accepted by Pareto")
	}
	a := in.AddTask("a", 1, 1, 1)
	b := in.AddTask("b", 1, 1, 1)
	in.AddPrecedence(a, b)
	in.AddPrecedence(b, a)
	if _, err := Solve(in, Chip{W: 4, H: 4, T: 4}, nil); err == nil {
		t.Fatal("cyclic precedence accepted")
	}
}

func TestLoadAndWrapInstance(t *testing.T) {
	in, err := LoadInstance("instances/de.json")
	if err != nil {
		t.Fatal(err)
	}
	if in.NumTasks() != 11 || in.Name() != "DE" {
		t.Fatalf("loaded %q with %d tasks", in.Name(), in.NumTasks())
	}
	if _, err := LoadInstance("instances/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	m := in.Model()
	if m.N() != 11 {
		t.Fatalf("Model() has %d tasks", m.N())
	}
	wrapped := WrapInstance(m)
	if wrapped.NumTasks() != 11 {
		t.Fatal("WrapInstance lost tasks")
	}
}

func TestSimulateAPI(t *testing.T) {
	de := BenchmarkDE()
	res, err := MinimizeChip(de, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	chip := Chip{W: res.Value, H: res.Value, T: 14}
	tr, err := de.Simulate(res.Placement, chip)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BusyCellCycles != de.Model().Volume() {
		t.Fatalf("busy cell-cycles %d != volume %d", tr.BusyCellCycles, de.Model().Volume())
	}
	if _, err := de.Simulate(nil, chip); err == nil {
		t.Fatal("nil placement accepted")
	}
}

// TestVerifyPlacementMatchesOrderVerify checks that VerifyPlacement's
// arc-by-arc precedence check gives the verdict of Placement.Verify
// over the order's transitive closure. Half the placements put tasks
// side by side in x, so only start times decide; the rest are drawn
// anywhere in the chip.
func TestVerifyPlacementMatchesOrderVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	verdicts := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		m := bench.Random(rng, 2+rng.Intn(7), 3, 3, 0.3)
		order, err := m.Order()
		if err != nil {
			t.Fatal(err)
		}
		c := Chip{W: 6, H: 6, T: order.CriticalPath() + rng.Intn(4)}
		p := model.NewPlacement(m.N())
		x := 0
		for i, task := range m.Tasks {
			if trial%2 == 0 {
				p.X[i], x = x, x+task.W
			} else {
				p.X[i], p.Y[i] = rng.Intn(c.W-task.W+1), rng.Intn(c.H-task.H+1)
			}
			p.S[i] = rng.Intn(c.T - task.Dur + 1)
		}
		if trial%2 == 0 {
			c.W = x
		}
		got := WrapInstance(m).VerifyPlacement(p, c) == nil
		if want := p.Verify(m, c, order) == nil; got != want {
			t.Fatalf("trial %d: VerifyPlacement ok=%v, Verify over the closure ok=%v\n%v\n%+v", trial, got, want, m, p)
		}
		verdicts[got]++
	}
	if verdicts[true] < 50 || verdicts[false] < 50 {
		t.Fatalf("degenerate corpus: %v", verdicts)
	}
}
