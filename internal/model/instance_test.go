package model

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func demoInstance() *Instance {
	return &Instance{
		Name: "demo",
		Tasks: []Task{
			{Name: "a", W: 2, H: 3, Dur: 4},
			{Name: "b", W: 1, H: 1, Dur: 2},
			{Name: "c", W: 5, H: 2, Dur: 1},
		},
		Prec: []Arc{{From: 0, To: 1}, {From: 1, To: 2}},
	}
}

func TestInstanceValidateOK(t *testing.T) {
	if err := demoInstance().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Instance)
	}{
		{"no tasks", func(in *Instance) { in.Tasks = nil }},
		{"zero width", func(in *Instance) { in.Tasks[0].W = 0 }},
		{"negative height", func(in *Instance) { in.Tasks[1].H = -2 }},
		{"zero duration", func(in *Instance) { in.Tasks[2].Dur = 0 }},
		{"arc from out of range", func(in *Instance) { in.Prec[0].From = 9 }},
		{"arc to negative", func(in *Instance) { in.Prec[0].To = -1 }},
		{"self arc", func(in *Instance) { in.Prec[0] = Arc{From: 1, To: 1} }},
		{"cycle", func(in *Instance) { in.Prec = append(in.Prec, Arc{From: 2, To: 0}) }},
	}
	for _, tc := range cases {
		in := demoInstance()
		tc.mut(in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid instance", tc.name)
		}
	}
}

func TestInstanceAggregates(t *testing.T) {
	in := demoInstance()
	if got := in.Volume(); got != 2*3*4+1*1*2+5*2*1 {
		t.Fatalf("Volume = %d", got)
	}
	if got := in.TotalDuration(); got != 7 {
		t.Fatalf("TotalDuration = %d", got)
	}
	if in.MaxW() != 5 || in.MaxH() != 3 {
		t.Fatalf("MaxW/MaxH = %d/%d", in.MaxW(), in.MaxH())
	}
	d := in.Durations()
	if len(d) != 3 || d[0] != 4 || d[2] != 1 {
		t.Fatalf("Durations = %v", d)
	}
	if got := (Task{W: 2, H: 3, Dur: 4}).Volume(); got != 24 {
		t.Fatalf("Task.Volume = %d", got)
	}
}

func TestInstanceCloneAndWithoutPrec(t *testing.T) {
	in := demoInstance()
	c := in.Clone()
	c.Tasks[0].W = 99
	c.Prec[0].From = 2
	if in.Tasks[0].W == 99 || in.Prec[0].From == 2 {
		t.Fatal("Clone shares storage")
	}
	np := in.WithoutPrec()
	if len(np.Prec) != 0 {
		t.Fatal("WithoutPrec kept arcs")
	}
	if len(in.Prec) != 2 {
		t.Fatal("WithoutPrec mutated original")
	}
	if !strings.Contains(np.Name, "no precedence") {
		t.Fatalf("WithoutPrec name = %q", np.Name)
	}
}

func TestContainer(t *testing.T) {
	c := Container{W: 4, H: 5, T: 6}
	if c.Volume() != 120 {
		t.Fatalf("Volume = %d", c.Volume())
	}
	if c.String() != "4x5x6" {
		t.Fatalf("String = %q", c.String())
	}
	in := demoInstance()
	if !(Container{W: 5, H: 3, T: 4}).Fits(in) {
		t.Fatal("instance should fit 5x3x4 per task")
	}
	if (Container{W: 4, H: 3, T: 4}).Fits(in) {
		t.Fatal("task c (w=5) cannot fit width 4")
	}
	if (Container{W: 5, H: 3, T: 3}).Fits(in) {
		t.Fatal("task a (dur=4) cannot fit horizon 3")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := demoInstance()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != in.Name || len(back.Tasks) != len(in.Tasks) || len(back.Prec) != len(in.Prec) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range in.Tasks {
		if back.Tasks[i] != in.Tasks[i] {
			t.Fatalf("task %d mismatch: %+v vs %+v", i, back.Tasks[i], in.Tasks[i])
		}
	}
}

func TestReadInstanceRejectsBadInput(t *testing.T) {
	for _, src := range []string{
		`{"tasks": []}`,                                     // no tasks
		`{"tasks": [{"w":1,"h":1,"dur":0}]}`,                // zero duration
		`{"tasks": [{"w":1,"h":1,"dur":1}], "bogus": true}`, // unknown field
		`not json`,
		`{"tasks":[{"w":1,"h":1,"dur":1},{"w":1,"h":1,"dur":1}],"prec":[{"from":0,"to":1},{"from":1,"to":0}]}`, // cycle
	} {
		if _, err := ReadInstance(strings.NewReader(src)); err == nil {
			t.Errorf("ReadInstance accepted %q", src)
		}
	}
}

func TestReadInstanceOK(t *testing.T) {
	src := `{"name":"x","tasks":[{"name":"m","w":16,"h":16,"dur":2}],"prec":[]}`
	in, err := ReadInstance(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 1 || in.Tasks[0].Name != "m" {
		t.Fatalf("parsed %+v", in)
	}
}

// TestVolumeSaturates: volumes past the int range saturate at
// math.MaxInt instead of wrapping to a negative number.
func TestVolumeSaturates(t *testing.T) {
	const side = 1 << 21
	if v := (Container{W: side, H: side, T: side}).Volume(); v != math.MaxInt {
		t.Fatalf("2^21-cube volume = %d, want math.MaxInt", v)
	}
	if v := (Container{W: side, H: side, T: side - 1}).Volume(); v != side*side*(side-1) {
		t.Fatalf("volume just under 2^63 = %d", v)
	}
	big := Task{W: side, H: side, Dur: side}
	if v := big.Volume(); v != math.MaxInt {
		t.Fatalf("task volume = %d, want math.MaxInt", v)
	}
	half := Task{W: side, H: side, Dur: side / 2}
	in := &Instance{Tasks: []Task{half, half, half, {W: 1, H: 1, Dur: 1}}}
	if v := in.Volume(); v != math.MaxInt {
		t.Fatalf("instance volume = %d, want math.MaxInt", v)
	}
	if v := (&Instance{Tasks: []Task{half, {W: 2, H: 3, Dur: 4}}}).Volume(); v != side*side*side/2+24 {
		t.Fatalf("instance volume = %d", v)
	}
}
