// Package pack2d decides two-dimensional orthogonal packing exactly on
// a small chip: can boxes w[i]×h[i] be placed, unrotated and without
// overlap, in a W×H rectangle with W, H ≤ 64? It is the fixed-schedule
// question of the paper (FeasA&FixedS) when every task runs during one
// common cycle, which is what an online admission probe asks when every
// resident and the candidate are loaded now.
//
// The chip is a bit grid, one uint64 per row. The search fills the
// lowest, then leftmost empty cell at every step: either with a box
// whose bottom-left corner is that cell, or by leaving the cell empty,
// which the area slack W·H − Σ w·h allows a bounded number of times.
// Every packing is reached this way along exactly one path, so an
// exhausted search proves infeasibility. Two rules of the bottom-left
// normal form prune it: a box above row 0 must rest on at least one
// cell of another box, and a box of height 1 must not have a
// cell left empty to its left. Any packing can be pushed down and left
// until no box moves, and the result obeys both rules, so the pruning
// loses no answer.
package pack2d

import (
	"context"
	"math/bits"
	"slices"
)

// MaxW is the widest chip Pack accepts: one row is one uint64. MaxH,
// the tallest, bounds the recursion, one level per box placed or cell
// left empty, by n + 4 096.
const (
	MaxW = 64
	MaxH = 64
)

// Status is the outcome of a search.
type Status int

const (
	// Feasible means the boxes pack; Result.X and Result.Y hold a packing.
	Feasible Status = iota
	// Infeasible means the search was exhaustive: no packing exists.
	Infeasible
	// StepLimit means the step budget ran out first.
	StepLimit
	// Canceled means the context was done first.
	Canceled
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case StepLimit:
		return "step-limit"
	case Canceled:
		return "canceled"
	}
	return "unknown"
}

// Result is the outcome of Pack. Steps counts the boxes placed and
// cells left empty along the search.
type Result struct {
	Status Status
	X, Y   []int // bottom-left corner of box i; nil unless Feasible
	Steps  int64
}

// pollEvery is the step cadence of the context poll: about every
// 0.25 ms at some 60 ns per step.
const pollEvery = 1 << 12

// Pack decides whether boxes ws[i]×hs[i] pack into a W×H chip, spending
// at most limit steps (0 = unlimited) and polling ctx (nil = never) on
// a fixed step cadence. W must be in 1..MaxW, H in 1..MaxH, and every
// box size positive.
func Pack(ctx context.Context, W, H int, ws, hs []int, limit int64) Result {
	if W < 1 || W > MaxW || H < 1 || H > MaxH {
		panic("pack2d: chip side out of range")
	}
	area := 0
	for i := range ws {
		if ws[i] > W || hs[i] > H {
			return Result{Status: Infeasible}
		}
		area += ws[i] * hs[i]
	}
	if area > W*H {
		return Result{Status: Infeasible}
	}
	s := &search{ctx: ctx, limit: limit, slack: W*H - area, H: H,
		rows: make([]uint64, H), empty: make([]uint64, H),
		x: make([]int, len(ws)), y: make([]int, len(ws)), left: len(ws)}
	// Bits W..63 of every row are set for good, so a row is full when
	// it is all ones and a run of empty cells stops at the chip's edge
	// (at W = 64, at the word's end).
	pad := ^(^uint64(0) >> (MaxW - W))
	for r := range s.rows {
		s.rows[r] = pad
	}
	s.groupTypes(ws, hs)
	if s.fill(0) {
		return Result{Status: Feasible, X: s.x, Y: s.y, Steps: s.steps}
	}
	if s.abort != Feasible {
		return Result{Status: s.abort, Steps: s.steps}
	}
	return Result{Status: Infeasible, Steps: s.steps}
}

// boxType is a class of interchangeable boxes: same width and height.
// The search branches on types, not boxes, so it never tries two
// orders of equal boxes. ids lists the class's boxes; the first n are
// still to place.
type boxType struct {
	w, h int
	mask uint64 // w low bits set
	ids  []int
	n    int
}

type search struct {
	ctx   context.Context
	limit int64
	steps int64
	abort Status // Feasible while not aborted

	H     int
	rows  []uint64 // occupied cells: boxes, cells left empty and the padding
	empty []uint64 // cells left empty
	slack int      // cells that may still be left empty
	types []boxType
	left  int // boxes still to place
	x, y  []int
}

// groupTypes builds the box classes, largest area first, then tallest:
// big boxes have the fewest positions, so they go first.
func (s *search) groupTypes(ws, hs []int) {
	for i := range ws {
		k := slices.IndexFunc(s.types, func(t boxType) bool { return t.w == ws[i] && t.h == hs[i] })
		if k < 0 {
			s.types = append(s.types, boxType{w: ws[i], h: hs[i], mask: ^uint64(0) >> (MaxW - ws[i])})
			k = len(s.types) - 1
		}
		s.types[k].ids = append(s.types[k].ids, i)
		s.types[k].n++
	}
	slices.SortStableFunc(s.types, func(a, b boxType) int {
		if a.w*a.h != b.w*b.h {
			return b.w*b.h - a.w*a.h
		}
		return b.h - a.h
	})
}

// step counts one step and reports whether the search may take it.
func (s *search) step() bool {
	switch {
	case s.limit > 0 && s.steps == s.limit:
		s.abort = StepLimit
	case s.ctx != nil && s.steps%pollEvery == 0 && s.ctx.Err() != nil:
		s.abort = Canceled
	default:
		s.steps++
		return true
	}
	return false
}

// fill decides the lowest, then leftmost empty cell at or above row y0
// (every row below y0 is full) and recurses; it reports whether the
// boxes left all pack.
func (s *search) fill(y0 int) bool {
	if s.left == 0 {
		return true
	}
	for s.rows[y0] == ^uint64(0) {
		y0++
	}
	row := s.rows[y0]
	x := bits.TrailingZeros64(^row)
	run := min(bits.TrailingZeros64(row>>x), MaxW-x) // empty cells from x rightwards
	var below uint64                                 // box cells of the row below
	if y0 > 0 {
		below = s.rows[y0-1] &^ s.empty[y0-1]
	}
	leftEmpty := x > 0 && s.empty[y0]>>(x-1)&1 != 0
	for k := range s.types {
		t := &s.types[k]
		if t.n == 0 || t.w > run || y0+t.h > s.H {
			continue
		}
		m := t.mask << x
		if y0 > 0 && below&m == 0 || t.h == 1 && leftEmpty || !s.free(y0, t.h, m) {
			continue
		}
		if !s.step() {
			return false
		}
		s.flip(y0, t.h, m)
		t.n--
		s.left--
		if id := t.ids[t.n]; s.fill(y0) {
			s.x[id], s.y[id] = x, y0
			return true
		}
		s.left++
		t.n++
		s.flip(y0, t.h, m)
		if s.abort != Feasible {
			return false
		}
	}
	if s.slack == 0 || !s.step() {
		return false
	}
	bit := uint64(1) << x
	s.rows[y0] |= bit
	s.empty[y0] |= bit
	s.slack--
	ok := s.fill(y0)
	s.slack++
	s.rows[y0] &^= bit
	s.empty[y0] &^= bit
	return ok
}

// free reports whether mask m is empty in rows y..y+h-1.
func (s *search) free(y, h int, m uint64) bool {
	for r := y; r < y+h; r++ {
		if s.rows[r]&m != 0 {
			return false
		}
	}
	return true
}

// flip toggles mask m in rows y..y+h-1: places or removes a box.
func (s *search) flip(y, h int, m uint64) {
	for r := y; r < y+h; r++ {
		s.rows[r] ^= m
	}
}
