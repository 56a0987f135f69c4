package heur

import (
	"math/rand"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

func mustOrder(t *testing.T, in *model.Instance) *model.Order {
	t.Helper()
	o, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// place runs the greedy placer under c's horizon, returning the
// placement and true when one fits c.
func place(in *model.Instance, c model.Container, o *model.Order) (*model.Placement, bool) {
	p, mk := bestPlacement(in, c.W, c.H, c.T, o)
	return p, p != nil && mk <= c.T
}

// TestPlacementsAlwaysValid: whatever the heuristic returns must verify
// geometrically and against the precedence order.
func TestPlacementsAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(6), 4, 4, 0.3)
		c := model.Container{W: 3 + rng.Intn(4), H: 3 + rng.Intn(4), T: 3 + rng.Intn(6)}
		o := mustOrder(t, in)
		p, ok := place(in, c, o)
		if !ok {
			continue
		}
		if err := p.Verify(in, c, o); err != nil {
			t.Fatalf("seed %d: heuristic placement invalid: %v", seed, err)
		}
	}
}

func TestMinMakespanProperties(t *testing.T) {
	for seed := int64(0); seed < 800; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(5), 3, 4, 0.4)
		W, H := 4, 4
		o := mustOrder(t, in)
		p, mk, ok := MinMakespan(in, W, H, o)
		if !ok {
			t.Fatalf("seed %d: MinMakespan failed although tasks fit", seed)
		}
		if mk < o.CriticalPath() {
			t.Fatalf("seed %d: makespan %d below critical path %d", seed, mk, o.CriticalPath())
		}
		if mk > in.TotalDuration() {
			t.Fatalf("seed %d: makespan %d above serialization %d", seed, mk, in.TotalDuration())
		}
		if err := p.Verify(in, model.Container{W: W, H: H, T: mk}, o); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.Makespan(in) != mk {
			t.Fatalf("seed %d: reported makespan %d differs from placement %d", seed, mk, p.Makespan(in))
		}
	}
}

func TestMinMakespanSpatialMisfit(t *testing.T) {
	in := &model.Instance{Tasks: []model.Task{{W: 9, H: 1, Dur: 1}}}
	if _, _, ok := MinMakespan(in, 8, 8, mustOrder(t, in)); ok {
		t.Fatal("oversized task placed")
	}
}

func TestPlaceRespectsHorizon(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{{W: 2, H: 2, Dur: 2}, {W: 2, H: 2, Dur: 2}},
		Prec:  []model.Arc{{From: 0, To: 1}},
	}
	o := mustOrder(t, in)
	if _, ok := place(in, model.Container{W: 2, H: 2, T: 3}, o); ok {
		t.Fatal("chain of length 4 placed in horizon 3")
	}
	p, ok := place(in, model.Container{W: 2, H: 2, T: 4}, o)
	if !ok {
		t.Fatal("chain of length 4 not placed in horizon 4")
	}
	if p.S[1] < 2 {
		t.Fatal("successor started before predecessor finished")
	}
}

func TestHeuristicFindsDEOptimum(t *testing.T) {
	de := bench.DE()
	o := mustOrder(t, de)
	// The greedy placer with tail priority finds the paper's optimal
	// T=6 schedule on the 32×32 chip.
	if _, ok := place(de, model.Container{W: 32, H: 32, T: 6}, o); !ok {
		t.Fatal("heuristic misses the DE optimum at 32x32x6")
	}
	_, mk, ok := MinMakespan(de, 64, 64, o)
	if !ok || mk != 6 {
		t.Fatalf("MinMakespan(64x64) = %d, want 6", mk)
	}
}

// TestWideChipFallback exercises the W > 64 boolean-grid code path.
func TestWideChipFallback(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{
			{W: 70, H: 3, Dur: 2},
			{W: 70, H: 3, Dur: 2},
			{W: 10, H: 2, Dur: 1},
		},
		Prec: []model.Arc{{From: 0, To: 2}},
	}
	o := mustOrder(t, in)
	c := model.Container{W: 80, H: 6, T: 4}
	p, ok := place(in, c, o)
	if !ok {
		t.Fatal("wide-chip placement failed")
	}
	if err := p.Verify(in, c, o); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathMatchesFallback: the bitmask path and the boolean-grid
// path must produce placements of the same quality class (both succeed
// or both fail) on mirrored instances.
func TestFastPathMatchesFallback(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 2+rng.Intn(4), 4, 3, 0.3)
		o := mustOrder(t, in)
		cNarrow := model.Container{W: 5, H: 5, T: 5}
		// The same instance on a ≥65-wide chip cannot be harder.
		cWide := model.Container{W: 65, H: 5, T: 5}
		_, okNarrow := place(in, cNarrow, o)
		_, okWide := place(in, cWide, o)
		if okNarrow && !okWide {
			t.Fatalf("seed %d: wider chip failed where narrow succeeded", seed)
		}
	}
}

func TestRunMask(t *testing.T) {
	// free = bits 0..7 set except bit 3: runs are [0,3) and [4,8).
	free := uint64(0b11110111)
	if m := runMask(free, 3, 8); m&(1<<0) == 0 || m&(1<<1) != 0 || m&(1<<4) == 0 || m&(1<<5) == 0 {
		t.Fatalf("runMask(3) = %b", m)
	}
	// Width-respecting: w=4 in W=8 allows starts 0..4 only.
	if m := runMask(^uint64(0), 4, 8); m != 0b11111 {
		t.Fatalf("runMask(full, 4, 8) = %b", m)
	}
	// Full-width w=64.
	if m := runMask(^uint64(0), 64, 64); m != 1 {
		t.Fatalf("runMask(full, 64, 64) = %b", m)
	}
}

func TestOccGridFill(t *testing.T) {
	g := newOccGrid(8, 4, 3)
	g.fill(2, 1, 0, 3, 2, 2)
	// The filled region must be rejected, a disjoint one accepted.
	if _, _, _, ok := g.findSlot(3, 2, 2, 0); !ok {
		t.Fatal("no slot found on a mostly empty grid")
	}
	x, y, s, ok := g.findSlot(8, 4, 1, 0)
	if !ok {
		t.Fatal("full-footprint slot not found")
	}
	if s != 2 || x != 0 || y != 0 {
		t.Fatalf("full-footprint slot at (%d,%d,%d), want (0,0,2)", x, y, s)
	}
}

// BenchmarkMinMakespan times the greedy placer, every rule, on the
// paper's instances.
func BenchmarkMinMakespan(b *testing.B) {
	for _, c := range []struct {
		name string
		in   *model.Instance
		W, H int
	}{
		{"de.17x17", bench.DE(), 17, 17},
		{"codec.64x64", bench.VideoCodec(), 64, 64},
		{"fft8.17x17", bench.FFT(8), 17, 17},
	} {
		o, err := c.in.Order()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MinMakespan(c.in, c.W, c.H, o)
			}
		})
	}
}
