package fpga

import "fmt"

// Grid is a W×H spatial cell-occupancy bitmap — the instantaneous view
// of a partially reconfigurable array that the online placement layer
// maintains between reconfigurations. Unlike the simulator's full
// space-time replay, a Grid tracks a single moment: which cells are
// currently owned by a configured module.
type Grid struct {
	W, H  int
	cells []bool // row-major: cells[y*W+x]
}

// NewGrid returns an empty W×H occupancy grid.
func NewGrid(w, h int) *Grid {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("fpga: non-positive grid %dx%d", w, h))
	}
	return &Grid{W: w, H: h, cells: make([]bool, w*h)}
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	c := &Grid{W: g.W, H: g.H, cells: make([]bool, len(g.cells))}
	copy(c.cells, g.cells)
	return c
}

// Fill marks the w×h region at (x, y) occupied.
func (g *Grid) Fill(x, y, w, h int) {
	for r := y; r < y+h; r++ {
		for c := x; c < x+w; c++ {
			g.cells[r*g.W+c] = true
		}
	}
}

// Clear marks the w×h region at (x, y) free.
func (g *Grid) Clear(x, y, w, h int) {
	for r := y; r < y+h; r++ {
		for c := x; c < x+w; c++ {
			g.cells[r*g.W+c] = false
		}
	}
}

// RegionFree reports whether the w×h region at (x, y) lies inside the
// grid and every cell of it is free.
func (g *Grid) RegionFree(x, y, w, h int) bool {
	if x < 0 || y < 0 || x+w > g.W || y+h > g.H {
		return false
	}
	for r := y; r < y+h; r++ {
		for c := x; c < x+w; c++ {
			if g.cells[r*g.W+c] {
				return false
			}
		}
	}
	return true
}

// FreeCells counts currently unoccupied cells.
func (g *Grid) FreeCells() int {
	n := 0
	for _, b := range g.cells {
		if !b {
			n++
		}
	}
	return n
}

// Rect is an axis-aligned cell rectangle: the w×h region whose
// lower-left corner is (X, Y).
type Rect struct {
	X, Y, W, H int
}

// Area returns the rectangle's cell count.
func (r Rect) Area() int { return r.W * r.H }

// Fits reports whether a w×h module fits inside the rectangle.
func (r Rect) Fits(w, h int) bool { return w <= r.W && h <= r.H }

// MaximalFreeRects enumerates every maximal free rectangle of the grid:
// free rectangles that cannot be extended in any of the four directions.
// This is the free-space index of Ahmadinia et al. — any module that
// fits somewhere on the grid fits inside at least one maximal free
// rectangle, so admission queries reduce to scanning this (much
// smaller) list instead of the cell array.
//
// The enumeration considers every row band [y1, y2]: the maximal
// horizontal runs of columns free throughout the band are maximal in x
// by construction, and the band is maximal in y exactly when neither
// the row below y1 nor the row above y2 stays free over the run. The
// result is ordered bottom-left first (by Y, then X, then height).
func (g *Grid) MaximalFreeRects() []Rect {
	var out []Rect
	for y1 := 0; y1 < g.H; y1++ {
		// free[x] = columns free throughout rows [y1, y2], updated
		// incrementally as the band grows upward.
		free := make([]bool, g.W)
		for x := 0; x < g.W; x++ {
			free[x] = !g.cells[y1*g.W+x]
		}
		for y2 := y1; y2 < g.H; y2++ {
			if y2 > y1 {
				for x := 0; x < g.W; x++ {
					free[x] = free[x] && !g.cells[y2*g.W+x]
				}
			}
			for x1 := 0; x1 < g.W; {
				if !free[x1] {
					x1++
					continue
				}
				x2 := x1
				for x2+1 < g.W && free[x2+1] {
					x2++
				}
				if g.bandMaximal(x1, x2, y1, y2) {
					out = append(out, Rect{X: x1, Y: y1, W: x2 - x1 + 1, H: y2 - y1 + 1})
				}
				x1 = x2 + 1
			}
		}
	}
	return out
}

// bandMaximal reports whether the free run [x1, x2] × [y1, y2] cannot
// grow downward below y1 or upward above y2 (x-maximality is implied by
// run construction).
func (g *Grid) bandMaximal(x1, x2, y1, y2 int) bool {
	if y1 > 0 && g.rowFree(y1-1, x1, x2) {
		return false
	}
	if y2 < g.H-1 && g.rowFree(y2+1, x1, x2) {
		return false
	}
	return true
}

// rowFree reports whether row y is free over columns [x1, x2].
func (g *Grid) rowFree(y, x1, x2 int) bool {
	for x := x1; x <= x2; x++ {
		if g.cells[y*g.W+x] {
			return false
		}
	}
	return true
}

// BestFit returns the position for a w×h module chosen best-fit over
// the maximal free rectangles: the fitting rectangle of smallest area
// (leaving the largest contiguous regions intact for later arrivals),
// ties broken bottom-left. ok is false when no maximal free rectangle
// fits the module.
func BestFit(rects []Rect, w, h int) (x, y int, ok bool) {
	best := -1
	for i, r := range rects {
		if !r.Fits(w, h) {
			continue
		}
		if best < 0 || less(rects[i], rects[best]) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return rects[best].X, rects[best].Y, true
}

// less orders candidate rectangles for BestFit: smaller area first,
// then bottom-left.
func less(a, b Rect) bool {
	if a.Area() != b.Area() {
		return a.Area() < b.Area()
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// LargestFreeRect returns the maximal free rectangle of greatest area
// (zero Rect when the grid is completely occupied).
func LargestFreeRect(rects []Rect) Rect {
	var best Rect
	for _, r := range rects {
		if r.Area() > best.Area() {
			best = r
		}
	}
	return best
}

// Fragmentation measures how scattered the free space is: 1 minus the
// share of free cells covered by the single largest free rectangle.
// 0 means all free space is one rectangle (or the grid is full); values
// near 1 mean the free area is shredded into slivers no module can use.
func (g *Grid) Fragmentation(rects []Rect) float64 {
	free := g.FreeCells()
	if free == 0 {
		return 0
	}
	return 1 - float64(LargestFreeRect(rects).Area())/float64(free)
}
