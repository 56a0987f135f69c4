package heur

// Occupancy is the exported face of the list scheduler's occupancy
// grid, for callers outside the heuristic that need the same
// earliest-start bottom-left slot queries — the online placement layer
// seeds its free-space management with it. Coordinates are relative to
// the grid's own origin: time 0 is the first tracked cycle.
type Occupancy struct {
	g *occGrid
}

// NewOccupancy returns an empty W×H×T space-time occupancy grid.
func NewOccupancy(w, h, t int) *Occupancy {
	return &Occupancy{g: newOccGrid(w, h, t)}
}

// Fill marks the w×h×dur box at (x, y, s) occupied.
func (o *Occupancy) Fill(x, y, s, w, h, dur int) { o.g.fill(x, y, s, w, h, dur) }

// FindSlot returns the earliest-start, bottom-left position at which a
// w×h×dur box fits entirely in free cells with start ≥ est, using the
// same run-of-free-bits fast path as the greedy placer. ok is false
// when no slot exists within the grid's horizon.
func (o *Occupancy) FindSlot(w, h, dur, est int) (x, y, s int, ok bool) {
	return o.g.findSlot(w, h, dur, est)
}
