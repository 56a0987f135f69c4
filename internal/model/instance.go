// Package model defines the problem data of the paper: module tasks with
// spatial footprints and durations, precedence orders, chip containers,
// schedules and placements, along with validation, geometric
// verification, and a JSON interchange format.
package model

import (
	"fmt"
	"math"
	"math/bits"
)

// Task is a hardware module: a w×h block of FPGA cells that computes for
// Dur clock cycles. In the three-dimensional packing view it is the box
// W × H × Dur.
type Task struct {
	Name string `json:"name"`
	W    int    `json:"w"`   // spatial extent in x (cells)
	H    int    `json:"h"`   // spatial extent in y (cells)
	Dur  int    `json:"dur"` // execution time (clock cycles)
}

// Volume returns the space-time volume of the task's box, saturated at
// math.MaxInt (see volume3).
func (t Task) Volume() int { return volume3(t.W, t.H, t.Dur) }

// volume3 returns a·b·c for non-negative sides, saturated at
// math.MaxInt instead of wrapping: a wrapped volume could turn
// negative and let a volume comparison refute a feasible instance.
func volume3(a, b, c int) int {
	hi, ab := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 {
		return math.MaxInt
	}
	hi, abc := bits.Mul64(ab, uint64(c))
	if hi != 0 || abc > math.MaxInt {
		return math.MaxInt
	}
	return int(abc)
}

// Arc is a precedence constraint: task From must finish before task To
// starts. Indices refer to Instance.Tasks.
type Arc struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Instance is a module placement problem: a set of tasks plus a partial
// order of temporal precedence constraints (a DAG over the tasks).
type Instance struct {
	Name  string `json:"name,omitempty"`
	Tasks []Task `json:"tasks"`
	Prec  []Arc  `json:"prec,omitempty"`
}

// N returns the number of tasks.
func (in *Instance) N() int { return len(in.Tasks) }

// Volume returns the total space-time volume of all tasks, saturated at
// math.MaxInt.
func (in *Instance) Volume() int {
	v := 0
	for _, t := range in.Tasks {
		if v += t.Volume(); v < 0 {
			return math.MaxInt
		}
	}
	return v
}

// TotalDuration returns the sum of all task durations (the makespan of a
// fully serialized schedule).
func (in *Instance) TotalDuration() int {
	d := 0
	for _, t := range in.Tasks {
		d += t.Dur
	}
	return d
}

// Durations returns the slice of task durations indexed by task.
func (in *Instance) Durations() []int {
	d := make([]int, len(in.Tasks))
	for i, t := range in.Tasks {
		d[i] = t.Dur
	}
	return d
}

// MaxW returns the largest task width, MaxH the largest height.
func (in *Instance) MaxW() int {
	m := 0
	for _, t := range in.Tasks {
		if t.W > m {
			m = t.W
		}
	}
	return m
}

// MaxH returns the largest task height.
func (in *Instance) MaxH() int {
	m := 0
	for _, t := range in.Tasks {
		if t.H > m {
			m = t.H
		}
	}
	return m
}

// Validate checks structural sanity: at least one task, strictly positive
// dimensions, in-range precedence arcs, no self-arcs, and an acyclic
// precedence relation.
func (in *Instance) Validate() error {
	if len(in.Tasks) == 0 {
		return fmt.Errorf("model: instance %q has no tasks", in.Name)
	}
	for i, t := range in.Tasks {
		if t.W <= 0 || t.H <= 0 || t.Dur <= 0 {
			return fmt.Errorf("model: task %d (%q) has non-positive dimensions %dx%dx%d",
				i, t.Name, t.W, t.H, t.Dur)
		}
	}
	for _, a := range in.Prec {
		if a.From < 0 || a.From >= len(in.Tasks) || a.To < 0 || a.To >= len(in.Tasks) {
			return fmt.Errorf("model: precedence arc %d→%d out of range", a.From, a.To)
		}
		if a.From == a.To {
			return fmt.Errorf("model: self-precedence on task %d", a.From)
		}
	}
	if _, _, _, ok := topoOrder(len(in.Tasks), in.Prec); !ok {
		return fmt.Errorf("model: precedence constraints contain a cycle")
	}
	return nil
}

// topoOrder sorts n tasks under arcs, each in range, by Kahn's
// algorithm over a compressed adjacency list in one allocation, linear
// in n and the arc count; self-arcs are ignored. It returns a
// topological order and the successor lists (v's successors are
// next[start[v]:start[v+1]]), and ok false when the arcs contain a
// cycle.
func topoOrder(n int, arcs []Arc) (topo, start, next []int, ok bool) {
	m := 0
	for _, a := range arcs {
		if a.From != a.To {
			m++
		}
	}
	buf := make([]int, 3*n+1+m)
	indeg, fill := buf[:n], buf[2*n+1:3*n+1]
	start, next = buf[n:2*n+1], buf[3*n+1:]
	for _, a := range arcs {
		if a.From != a.To {
			indeg[a.To]++
			start[a.From+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	copy(fill, start[:n])
	for _, a := range arcs {
		if a.From != a.To {
			next[fill[a.From]] = a.To
			fill[a.From]++
		}
	}
	topo = fill[:0] // fill is spent; each task enters topo at most once
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			topo = append(topo, v)
		}
	}
	for i := 0; i < len(topo); i++ {
		v := topo[i]
		for _, w := range next[start[v]:start[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				topo = append(topo, w)
			}
		}
	}
	return topo, start, next, len(topo) == n
}

// Order returns the precedence relation of the instance prepared for the
// solver: transitively closed, with cached earliest-start and tail data.
func (in *Instance) Order() (*Order, error) {
	return newOrder(in.Prec, in.Durations())
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	c := &Instance{Name: in.Name}
	c.Tasks = append([]Task(nil), in.Tasks...)
	c.Prec = append([]Arc(nil), in.Prec...)
	return c
}

// WithoutPrec returns a copy of the instance with all precedence
// constraints removed (the unconstrained baseline of Figure 7b).
func (in *Instance) WithoutPrec() *Instance {
	c := in.Clone()
	c.Prec = nil
	if c.Name != "" {
		c.Name += " (no precedence)"
	}
	return c
}

// Container is the available chip and time budget: a W×H cell array and
// an overall allowable time T.
type Container struct {
	W int `json:"w"`
	H int `json:"h"`
	T int `json:"t"`
}

// Volume returns the space-time volume of the container, saturated at
// math.MaxInt.
func (c Container) Volume() int { return volume3(c.W, c.H, c.T) }

func (c Container) String() string { return fmt.Sprintf("%dx%dx%d", c.W, c.H, c.T) }

// Fits reports whether every task individually fits inside the container.
func (c Container) Fits(in *Instance) bool {
	for _, t := range in.Tasks {
		if t.W > c.W || t.H > c.H || t.Dur > c.T {
			return false
		}
	}
	return true
}
