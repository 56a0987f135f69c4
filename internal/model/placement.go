package model

import (
	"fmt"
	"strings"
)

// Placement assigns every task a lower-left-front corner: spatial cell
// (X, Y) and start time S. Task i occupies cells
// [X[i], X[i]+W) × [Y[i], Y[i]+H) during cycles [S[i], S[i]+Dur).
type Placement struct {
	X []int `json:"x"`
	Y []int `json:"y"`
	S []int `json:"s"`
}

// NewPlacement returns a zeroed placement for n tasks.
func NewPlacement(n int) *Placement {
	return &Placement{X: make([]int, n), Y: make([]int, n), S: make([]int, n)}
}

// Clone returns a deep copy.
func (p *Placement) Clone() *Placement {
	return &Placement{
		X: append([]int(nil), p.X...),
		Y: append([]int(nil), p.Y...),
		S: append([]int(nil), p.S...),
	}
}

// Makespan returns the latest finish time over all tasks.
func (p *Placement) Makespan(in *Instance) int {
	m := 0
	for i, t := range in.Tasks {
		if f := p.S[i] + t.Dur; f > m {
			m = f
		}
	}
	return m
}

// Schedule returns just the start times (the FixedS view of a placement).
func (p *Placement) Schedule() []int { return append([]int(nil), p.S...) }

// Table renders the placement as a human-readable table.
func (p *Placement) Table(in *Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %6s %6s %6s %6s %6s\n", "task", "x", "y", "start", "w", "h", "dur")
	for i, t := range in.Tasks {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("task%d", i)
		}
		fmt.Fprintf(&b, "%-10s %6d %6d %6d %6d %6d %6d\n", name, p.X[i], p.Y[i], p.S[i], t.W, t.H, t.Dur)
	}
	return b.String()
}

// overlap1D reports whether [a, a+la) and [b, b+lb) intersect.
func overlap1D(a, la, b, lb int) bool { return a < b+lb && b < a+la }

// Verify checks that the placement is feasible for the instance inside
// the container: every box within bounds, no two boxes overlapping in
// all three dimensions, and (when order is non-nil) every precedence
// constraint u ≺ v satisfied as finish(u) ≤ start(v).
func (p *Placement) Verify(in *Instance, c Container, order *Order) error {
	n := in.N()
	if len(p.X) != n || len(p.Y) != n || len(p.S) != n {
		return fmt.Errorf("model: placement size mismatch (%d/%d/%d coords for %d tasks)",
			len(p.X), len(p.Y), len(p.S), n)
	}
	for i, t := range in.Tasks {
		if p.X[i] < 0 || p.Y[i] < 0 || p.S[i] < 0 {
			return fmt.Errorf("model: task %d placed at negative coordinate (%d,%d,%d)", i, p.X[i], p.Y[i], p.S[i])
		}
		if p.X[i]+t.W > c.W || p.Y[i]+t.H > c.H || p.S[i]+t.Dur > c.T {
			return fmt.Errorf("model: task %d (%dx%dx%d at %d,%d,%d) exceeds container %s",
				i, t.W, t.H, t.Dur, p.X[i], p.Y[i], p.S[i], c)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ti, tj := in.Tasks[i], in.Tasks[j]
			if overlap1D(p.X[i], ti.W, p.X[j], tj.W) &&
				overlap1D(p.Y[i], ti.H, p.Y[j], tj.H) &&
				overlap1D(p.S[i], ti.Dur, p.S[j], tj.Dur) {
				return fmt.Errorf("model: tasks %d and %d overlap in space and time", i, j)
			}
		}
	}
	if order != nil {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && order.Precedes(u, v) && p.S[u]+in.Tasks[u].Dur > p.S[v] {
					return fmt.Errorf("model: precedence %d≺%d violated: finish(%d)=%d > start(%d)=%d",
						u, v, u, p.S[u]+in.Tasks[u].Dur, v, p.S[v])
				}
			}
		}
	}
	return nil
}

// VerifyArcs checks each precedence arc of the instance directly:
// finish(from) ≤ start(to). When every duration is positive this is
// the verdict of Verify's check over the order's transitive closure
// (satisfied arcs chain into satisfied paths), and no placement
// satisfies a cycle, so it needs no Order. Out-of-range arcs and
// non-positive durations are errors.
func (p *Placement) VerifyArcs(in *Instance) error {
	n := in.N()
	if len(p.S) != n {
		return fmt.Errorf("model: %d start times for %d tasks", len(p.S), n)
	}
	for i, t := range in.Tasks {
		if t.Dur < 1 {
			return fmt.Errorf("model: task %d has non-positive duration %d", i, t.Dur)
		}
	}
	for _, a := range in.Prec {
		if a.From < 0 || a.From >= n || a.To < 0 || a.To >= n {
			return fmt.Errorf("model: precedence arc %d→%d out of range", a.From, a.To)
		}
		if f := p.S[a.From] + in.Tasks[a.From].Dur; f > p.S[a.To] {
			return fmt.Errorf("model: precedence %d≺%d violated: finish(%d)=%d > start(%d)=%d",
				a.From, a.To, a.From, f, a.To, p.S[a.To])
		}
	}
	return nil
}

// VerifySchedule checks a bare schedule (start times) against the order
// and horizon only — no spatial information.
func VerifySchedule(in *Instance, starts []int, T int, order *Order) error {
	if len(starts) != in.N() {
		return fmt.Errorf("model: %d start times for %d tasks", len(starts), in.N())
	}
	for i, t := range in.Tasks {
		if starts[i] < 0 || starts[i]+t.Dur > T {
			return fmt.Errorf("model: task %d runs [%d,%d) outside horizon %d", i, starts[i], starts[i]+t.Dur, T)
		}
	}
	if order != nil {
		for u := 0; u < in.N(); u++ {
			for v := 0; v < in.N(); v++ {
				if u != v && order.Precedes(u, v) && starts[u]+in.Tasks[u].Dur > starts[v] {
					return fmt.Errorf("model: precedence %d≺%d violated in schedule", u, v)
				}
			}
		}
	}
	return nil
}
