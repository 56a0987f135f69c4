package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
	"fpga3d/internal/strategy"
)

// cancelOnEvent is a trace sink that cancels a context the first time a
// line containing marker is emitted, turning trace events into
// deterministic cancellation points for the tests below.
type cancelOnEvent struct {
	marker string
	cancel context.CancelFunc
}

func (w *cancelOnEvent) Write(p []byte) (int, error) {
	if strings.Contains(string(p), w.marker) {
		w.cancel()
	}
	return len(p), nil
}

// TestParetoEmptyFrontierOnPreCanceled pins the walk's behavior when
// the context is dead before the first probe: a non-nil partial result
// with an empty frontier and the context's error, not a panic and not a
// fabricated point.
func TestParetoEmptyFrontierOnPreCanceled(t *testing.T) {
	in := &model.Instance{
		Name:  "pareto-empty",
		Tasks: []model.Task{{W: 2, H: 1, Dur: 1}, {W: 1, H: 2, Dur: 2}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := ParetoFrontCtx(ctx, in, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r == nil {
		t.Fatal("want a partial result alongside the error")
	}
	if len(r.Points) != 0 || len(r.Curve) != 0 {
		t.Fatalf("canceled-before-start walk produced points: %+v / curve %+v", r.Points, r.Curve)
	}
}

// TestParetoSinglePointFrontier covers the degenerate curve: when the
// very first time budget already reaches the largest-module floor, the
// walk must stop after one point instead of probing the serialized
// horizon.
func TestParetoSinglePointFrontier(t *testing.T) {
	in := &model.Instance{
		Name:  "pareto-single",
		Tasks: []model.Task{{W: 3, H: 2, Dur: 2}},
	}
	r, err := ParetoFront(in, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 1 || len(r.Curve) != 1 {
		t.Fatalf("points %+v curve %+v, want exactly one of each", r.Points, r.Curve)
	}
	if p := r.Points[0]; p.T != 2 || p.H != 3 {
		t.Fatalf("point %+v, want {T:2 H:3} (critical path, largest side)", p)
	}
}

// TestParetoCancellationMidWalk cancels the context right after the
// first frontier point is traced and requires a partial curve plus the
// context error: the walk must surface what it established before the
// deadline rather than discard it.
func TestParetoCancellationMidWalk(t *testing.T) {
	// Five independent 2×2 unit blocks: the full frontier has several
	// points (h = 6, 4, … down to 2), so a cancel after the first leaves
	// a genuinely partial curve.
	in := &model.Instance{
		Name: "pareto-cancel",
		Tasks: []model.Task{
			{W: 2, H: 2, Dur: 1}, {W: 2, H: 2, Dur: 1}, {W: 2, H: 2, Dur: 1},
			{W: 2, H: 2, Dur: 1}, {W: 2, H: 2, Dur: 1},
		},
	}
	full, err := ParetoFront(in, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) < 2 {
		t.Fatalf("instance unsuitable: full frontier %+v has fewer than 2 points", full.Points)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := ParetoFrontCtx(ctx, in, Options{
		Workers: 1,
		Trace:   obs.NewTracer(&cancelOnEvent{marker: "pareto_point", cancel: cancel}),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r == nil {
		t.Fatal("want the partial result alongside the error")
	}
	if len(r.Points) == 0 || len(r.Points) >= len(full.Points) {
		t.Fatalf("partial frontier has %d points, want between 1 and %d", len(r.Points), len(full.Points)-1)
	}
	if r.Probes == 0 {
		t.Fatal("partial result lost its probe accounting")
	}
}

// TestParetoWalkMatchesPerStepMinBase holds the seeded walk, where each
// step's chip ascent starts from the previous point, to independent
// per-step MinBase runs: every curve point is MinBase at its T, and the
// Pareto points are the curve's strict improvements. It covers the DE
// instance with and without precedence, the video codec and seeded
// random instances under every preset at Workers 1 and 2, and pins the
// DE walk to at most 12 probes at both (79 when every step ascended
// from its own lower bound).
func TestParetoWalkMatchesPerStepMinBase(t *testing.T) {
	instances := []*model.Instance{bench.DE(), bench.DE().WithoutPrec(), bench.VideoCodec()}
	for _, seed := range []int64{3, 5, 11, 12, 14, 16} {
		in := bench.Random(rand.New(rand.NewSource(seed)), 6+int(seed%4), 3, 3, 0.2)
		in.Name = fmt.Sprintf("random%d", seed)
		instances = append(instances, in)
	}
	for _, in := range instances {
		for _, preset := range strategy.Names() {
			for _, workers := range []int{1, 2} {
				opt := Options{Strategy: preset, Workers: workers}
				name := fmt.Sprintf("%s/%s/workers=%d", in.Name, preset, workers)
				pr, err := ParetoFront(in, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var points []ParetoPoint
				for _, p := range pr.Curve {
					r, err := MinBase(in, p.T, opt)
					if err != nil {
						t.Fatalf("%s: MinBase(T=%d): %v", name, p.T, err)
					}
					if r.Decision != Feasible || r.Value != p.H {
						t.Errorf("%s: curve has h=%d at T=%d, MinBase says %v h=%d", name, p.H, p.T, r.Decision, r.Value)
					}
					if len(points) == 0 || p.H < points[len(points)-1].H {
						points = append(points, p)
					}
				}
				if fmt.Sprint(points) != fmt.Sprint(pr.Points) {
					t.Errorf("%s: points %v, the curve's improvements are %v", name, pr.Points, points)
				}
				// A race counts the speculative probes it cancels too;
				// the below-incumbent probe runs alone, so the budget
				// holds at every worker count.
				if in.Name == "DE" && pr.Probes > 12 {
					t.Errorf("%s: %d probes, want ≤ 12", name, pr.Probes)
				}
			}
		}
	}
}
