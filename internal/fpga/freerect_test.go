package fpga

import (
	"math/rand"
	"testing"
)

func TestMaximalFreeRectsEmptyGrid(t *testing.T) {
	g := NewGrid(8, 5)
	rects := g.MaximalFreeRects()
	if len(rects) != 1 {
		t.Fatalf("empty grid: %d maximal rects, want 1 (%v)", len(rects), rects)
	}
	if rects[0] != (Rect{X: 0, Y: 0, W: 8, H: 5}) {
		t.Fatalf("empty grid: maximal rect %v, want the whole grid", rects[0])
	}
	if g.Fragmentation(rects) != 0 {
		t.Fatalf("empty grid fragmentation %v, want 0", g.Fragmentation(rects))
	}
}

func TestMaximalFreeRectsFullGrid(t *testing.T) {
	g := NewGrid(4, 4)
	g.Fill(0, 0, 4, 4)
	if rects := g.MaximalFreeRects(); len(rects) != 0 {
		t.Fatalf("full grid: %d maximal rects, want 0", len(rects))
	}
	if g.Fragmentation(nil) != 0 {
		t.Fatal("full grid fragmentation should be 0")
	}
}

// A single module in the middle of the grid leaves four maximal free
// rectangles (the bands left, right, below and above it).
func TestMaximalFreeRectsCross(t *testing.T) {
	g := NewGrid(6, 6)
	g.Fill(2, 2, 2, 2)
	rects := g.MaximalFreeRects()
	want := map[Rect]bool{
		{X: 0, Y: 0, W: 6, H: 2}: true, // below
		{X: 0, Y: 4, W: 6, H: 2}: true, // above
		{X: 0, Y: 0, W: 2, H: 6}: true, // left
		{X: 4, Y: 0, W: 2, H: 6}: true, // right
	}
	if len(rects) != len(want) {
		t.Fatalf("got %d rects %v, want %d", len(rects), rects, len(want))
	}
	for _, r := range rects {
		if !want[r] {
			t.Fatalf("unexpected maximal rect %v (all: %v)", r, rects)
		}
	}
}

// Every reported rectangle must be free and maximal, and every free
// cell must be covered by some maximal rectangle.
func TestMaximalFreeRectsRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		w, h := 3+rng.Intn(10), 3+rng.Intn(10)
		g := NewGrid(w, h)
		for i := 0; i < 1+rng.Intn(6); i++ {
			bw, bh := 1+rng.Intn(3), 1+rng.Intn(3)
			g.Fill(rng.Intn(w-bw+1), rng.Intn(h-bh+1), bw, bh)
		}
		rects := g.MaximalFreeRects()
		covered := make(map[[2]int]bool)
		for _, r := range rects {
			if !g.RegionFree(r.X, r.Y, r.W, r.H) {
				t.Fatalf("trial %d: rect %v not free", trial, r)
			}
			for _, ext := range []Rect{
				{r.X - 1, r.Y, r.W + 1, r.H}, {r.X, r.Y, r.W + 1, r.H},
				{r.X, r.Y - 1, r.W, r.H + 1}, {r.X, r.Y, r.W, r.H + 1},
			} {
				if g.RegionFree(ext.X, ext.Y, ext.W, ext.H) {
					t.Fatalf("trial %d: rect %v extensible to %v — not maximal", trial, r, ext)
				}
			}
			for yy := r.Y; yy < r.Y+r.H; yy++ {
				for xx := r.X; xx < r.X+r.W; xx++ {
					covered[[2]int{xx, yy}] = true
				}
			}
		}
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				if !g.cells[yy*g.W+xx] && !covered[[2]int{xx, yy}] {
					t.Fatalf("trial %d: free cell (%d,%d) covered by no maximal rect", trial, xx, yy)
				}
			}
		}
	}
}

func TestBestFitPrefersSmallestRect(t *testing.T) {
	// Two candidate rects: the narrow 2x8 left band and the big upper
	// region. A 2x2 module should land in the smaller band.
	g := NewGrid(8, 8)
	g.Fill(2, 0, 6, 2) // leaves a 2-wide full-height band at x=0 and the 8x6 top
	rects := g.MaximalFreeRects()
	x, y, ok := BestFit(rects, 2, 2)
	if !ok || x != 0 || y != 0 {
		t.Fatalf("BestFit(2x2) = (%d,%d,%v), want pocket (0,0)", x, y, ok)
	}
	if _, _, ok := BestFit(rects, 9, 1); ok {
		t.Fatal("BestFit should fail for a module wider than the grid")
	}
}

func TestFragmentationSplitSpace(t *testing.T) {
	// A full-height wall splits free space into two 2x4 halves: the
	// largest free rect covers half the free cells.
	g := NewGrid(5, 4)
	g.Fill(2, 0, 1, 4)
	rects := g.MaximalFreeRects()
	if got := g.Fragmentation(rects); got != 0.5 {
		t.Fatalf("fragmentation %v, want 0.5", got)
	}
	if lr := LargestFreeRect(rects); lr.Area() != 8 {
		t.Fatalf("largest free rect %v, want area 8", lr)
	}
}

func TestGridFillClearClone(t *testing.T) {
	g := NewGrid(4, 3)
	g.Fill(1, 1, 2, 2)
	c := g.Clone()
	g.Clear(1, 1, 2, 2)
	if g.FreeCells() != 12 {
		t.Fatalf("after clear: %d free cells, want 12", g.FreeCells())
	}
	if c.FreeCells() != 8 {
		t.Fatalf("clone mutated: %d free cells, want 8", c.FreeCells())
	}
	if c.RegionFree(1, 1, 2, 2) || !c.RegionFree(0, 0, 1, 3) {
		t.Fatal("clone occupancy wrong")
	}
	if c.RegionFree(3, 0, 2, 1) {
		t.Fatal("RegionFree must reject out-of-bounds regions")
	}
}
