package bounds

import (
	"math"
	"sort"

	"fpga3d/internal/model"
)

// FixedScheduleInfeasible tries stage-1 bounds on the FixedS variant:
// every task v runs during [starts[v], starts[v]+Dur) on a W×H chip.
// The tasks active at one instant pairwise overlap in time, so their
// W×H rectangles must pack side by side (Section 4 of the paper: fixed
// start times collapse the question to two dimensions). Every set of
// pairwise time-overlapping tasks lies in the set active at its latest
// start, so the sets active at the distinct start times cover them all.
// Each such set that is not contained in the next one is checked
// against the chip area and the two-dimensional conservative scales.
//
// When it returns true the schedule provably has no spatial placement
// and the string names the certifying bound; false is inconclusive. The
// caller has checked the schedule against c.T.
func FixedScheduleInfeasible(in *model.Instance, c model.Container, starts []int) (bool, string) {
	if !c.Fits(in) {
		return true, "task exceeds container"
	}
	n := in.N()
	byStart := make([]int, n)
	for v := range byStart {
		byStart[v] = v
	}
	sort.Slice(byStart, func(a, b int) bool { return starts[byStart[a]] < starts[byStart[b]] })
	chip := satMul(uint64(c.W), uint64(c.H))
	slice := make([]int, 0, n)
	ws, hs := make([]int, 0, n), make([]int, 0, n)
	for i, v := range byStart {
		s := starts[v]
		if i+1 < n && starts[byStart[i+1]] == s {
			continue // the slice at s is formed at its last starter
		}
		next := math.MaxInt // the next distinct start, if any
		if i+1 < n {
			next = starts[byStart[i+1]]
		}
		slice = slice[:0]
		maximal := next == math.MaxInt
		for _, u := range byStart[:i+1] {
			if end := starts[u] + in.Tasks[u].Dur; end > s {
				slice = append(slice, u)
				// A member that ends by the next start leaves the next
				// slice, so this one is not contained in it.
				maximal = maximal || end <= next
			}
		}
		if !maximal {
			continue
		}
		var area, over uint64
		ws, hs = ws[:0], hs[:0]
		for _, u := range slice {
			t := in.Tasks[u]
			area, over = mulAdd(area, over, uint64(t.W), uint64(t.H))
			ws, hs = append(ws, t.W), append(hs, t.H)
		}
		if over != 0 {
			area = math.MaxUint64
		}
		if area > chip {
			return true, "slice area"
		}
		if dffInfeasible([]int{c.W, c.H}, [][]int{ws, hs}, 4096) {
			return true, "slice dual feasible functions"
		}
	}
	return false, ""
}

// MinBaseFixedLB returns a lower bound on the side of the smallest
// square chip that admits the schedule starts: every task must fit,
// and the tasks active at one instant need at least their total
// footprint, so h ≥ ⌈√(largest slice area)⌉. Every smaller side is one
// that FixedScheduleInfeasible refutes.
func MinBaseFixedLB(in *model.Instance, starts []int) int {
	lb := max(in.MaxW(), in.MaxH())
	for _, s := range starts {
		area := 0
		for u, t := range in.Tasks {
			if starts[u] <= s && s < starts[u]+t.Dur {
				area = satAdd(area, satMulInt(t.W, t.H))
			}
		}
		lb = max(lb, ceilSqrt(area))
	}
	return lb
}
