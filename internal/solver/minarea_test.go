package solver

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

func TestMinAreaSimple(t *testing.T) {
	// Two concurrent 2×2×2 blocks at T=2: minimal rectangle is 4×2 or
	// 2×4 (area 8); a square would need 4×4 = 16.
	in := &model.Instance{
		Tasks: []model.Task{{W: 2, H: 2, Dur: 2}, {W: 2, H: 2, Dur: 2}},
	}
	r, err := MinArea(in, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.Area != 8 {
		t.Fatalf("area = %d (%v), want 8", r.Area, r.Decision)
	}
	if err := r.Placement.Verify(in, model.Container{W: r.W, H: r.H, T: 2}, nil); err != nil {
		t.Fatal(err)
	}
	sq, err := MinBase(in, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sq.Value != 4 {
		t.Fatalf("square side = %d, want 4", sq.Value)
	}
}

// TestMinAreaPrefersSquare: four 2×2×1 tasks at T=1 fit 2×8, 4×4 and
// 8×2 alike; the width sweep reaches 2×8 first and must still move on
// to the square.
func TestMinAreaPrefersSquare(t *testing.T) {
	task := model.Task{W: 2, H: 2, Dur: 1}
	in := &model.Instance{Tasks: []model.Task{task, task, task, task}}
	r, err := MinArea(in, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible || r.W != 4 || r.H != 4 {
		t.Fatalf("MinArea %v %dx%d, want 4x4", r.Decision, r.W, r.H)
	}
	if err := r.Placement.Verify(in, model.Container{W: 4, H: 4, T: 1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinAreaBelowCriticalPath(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{{W: 1, H: 1, Dur: 2}, {W: 1, H: 1, Dur: 2}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	r, err := MinArea(in, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Infeasible {
		t.Fatalf("decision %v", r.Decision)
	}
}

func TestMinAreaDE(t *testing.T) {
	de := bench.DE()
	opt := Options{TimeLimit: 120 * time.Second}
	r, err := MinArea(de, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Feasible {
		t.Fatalf("decision %v", r.Decision)
	}
	t.Logf("DE T=6 minimal rectangle: %dx%d area=%d probes=%d elapsed=%v", r.W, r.H, r.Area, r.Probes, r.Elapsed)
	// The rectangle beats the square optimum 32×32 = 1024: three
	// multipliers stack in a 16-wide column, so 16×48 = 768 suffices.
	if r.Area != 768 {
		t.Fatalf("area = %d, want 768", r.Area)
	}
	order, _ := de.Order()
	if err := r.Placement.Verify(de, model.Container{W: r.W, H: r.H, T: 6}, order); err != nil {
		t.Fatal(err)
	}
	// T=13: square optimum 17×17=289; a 16-wide rectangle should do
	// better (the multipliers serialize, the ALUs share rows).
	r13, err := MinArea(de, 13, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("DE T=13 minimal rectangle: %dx%d area=%d probes=%d elapsed=%v", r13.W, r13.H, r13.Area, r13.Probes, r13.Elapsed)
	// 16×17 = 272 beats the square optimum 17×17 = 289.
	if r13.Area != 272 {
		t.Fatalf("area = %d, want 272", r13.Area)
	}
}

// minAreaBrute answers MinArea by brute force: every width from the
// widest module to ΣW, each with its first feasible height by SolveOPP
// (ΣH always fits a feasible schedule), and the smallest product, ties
// broken towards the squarer chip and then the narrower one. It returns
// area 0 when the critical path exceeds T.
func minAreaBrute(t *testing.T, in *model.Instance, T int) (area, W, H int) {
	t.Helper()
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	if order.CriticalPath() > T {
		return 0, 0, 0
	}
	sumW, sumH := 0, 0
	for _, task := range in.Tasks {
		sumW += task.W
		sumH += task.H
	}
	for w := in.MaxW(); w <= sumW; w++ {
		for h := in.MaxH(); h <= sumH; h++ {
			if area > 0 && w*h > area {
				break
			}
			r, err := SolveOPP(in, model.Container{W: w, H: h, T: T}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Decision == Feasible {
				if area == 0 || w*h < area || diff(w, h) < diff(W, H) {
					area, W, H = w*h, w, h
				}
				break
			}
			if r.Decision != Infeasible {
				t.Fatalf("W=%d H=%d T=%d undecided", w, h, T)
			}
		}
	}
	return area, W, H
}

// minAreaCase draws the seeded MinArea corpus instance: 4–6 small tasks
// and a horizon at the critical path plus slack.
func minAreaCase(seed int64, slack int) (*model.Instance, int) {
	rng := rand.New(rand.NewSource(seed))
	in := bench.Random(rng, 4+rng.Intn(3), 4, 3, 0.2)
	order, err := in.Order()
	if err != nil {
		panic(err)
	}
	return in, order.CriticalPath() + slack
}

// checkMinArea compares MinArea with minAreaBrute on one question and
// verifies the returned rectangle's witness.
func checkMinArea(t *testing.T, label string, in *model.Instance, T int) {
	t.Helper()
	want, wantW, wantH := minAreaBrute(t, in, T)
	r, err := MinArea(in, T, Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want == 0 {
		if r.Decision != Infeasible {
			t.Fatalf("%s: decision %v below the critical path", label, r.Decision)
		}
		return
	}
	if r.Decision != Feasible || r.Area != want || r.W != wantW || r.H != wantH {
		t.Fatalf("%s: MinArea %v %dx%d=%d, brute force %dx%d=%d", label, r.Decision, r.W, r.H, r.Area, wantW, wantH, want)
	}
	order, _ := in.Order()
	if err := r.Placement.Verify(in, model.Container{W: r.W, H: r.H, T: T}, order); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestMinAreaMatchesBruteForce checks MinArea against brute force on
// 400 seeded instances at T = critical path + seed%3, the rectangle's
// shape included: among the minimal areas the squarest. A width's
// doubling ladder must reach every height that still improves the
// incumbent: the optima of seed 71 at T=6 (25) and seed 135 at T=3
// (16) lie between a width's last refuted rung and the first rung
// whose area reaches the incumbent.
func TestMinAreaMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		in, T := minAreaCase(seed, int(seed%3))
		checkMinArea(t, fmt.Sprintf("seed %d T=%d", seed, T), in, T)
	}
}

// FuzzMinArea runs the brute-force comparison of
// TestMinAreaMatchesBruteForce on fuzzed seeds and horizon slacks.
func FuzzMinArea(f *testing.F) {
	f.Add(int64(71), uint8(2))
	f.Add(int64(135), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, slack uint8) {
		in, T := minAreaCase(seed, int(slack%4))
		checkMinArea(t, fmt.Sprintf("seed %d T=%d", seed, T), in, T)
	})
}
