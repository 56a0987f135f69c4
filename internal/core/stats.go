package core

import (
	"reflect"
	"strings"
)

// Stats reports search effort and which rules fired. The counter names
// follow a prefix convention the introspection helpers below rely on:
// Conflict* counts conflicts detected by a rule, Forced* counts edge
// states fixed by a rule, Reject* counts leaf rejection reasons.
type Stats struct {
	// Nodes counts search-tree nodes entered. It is deterministic for a
	// given problem and options: the optimized and reference rule paths
	// (Options.ReferenceRules) must report the same value, which is the
	// invariant cmd/fpgabench and the differential tests gate on.
	Nodes int64
	// MaxDepth is the deepest search-tree level reached.
	MaxDepth int
	// Leaves counts fully decided states reaching leaf verification.
	Leaves int64
	// LeafRejects counts leaves that failed exact verification.
	LeafRejects int64
	// Propagations counts events popped from the propagation queue —
	// the engine's unit of constraint-propagation work. Deterministic
	// like Nodes.
	Propagations int64
	// Steals counts subtree hand-offs between the workers of a parallel
	// search (Options.Workers > 1), attributed to the donating shard.
	// Always zero on the sequential path; scheduling-dependent, so it is
	// excluded from the bit-identical contract.
	Steals int64

	ConflictC3     int64
	ConflictSize   int64
	ConflictClique int64
	ConflictArea   int64
	ConflictC4     int64
	ConflictOrient int64
	// ConflictGamma counts states refuted by the Γ implication classes
	// of a dimension: one class holds both orientations of a disjoint
	// edge, so the disjoint graph is not transitively orientable (D1,
	// see gamma.go).
	ConflictGamma int64

	ForcedC3     int64
	ForcedC4     int64
	ForcedClique int64
	ForcedArea   int64
	ForcedOrient int64
	ForcedSize   int64

	// Leaf rejection reasons.
	RejectChordal int64
	RejectStable  int64
	RejectOrient  int64
	RejectBounds  int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.Leaves += o.Leaves
	s.LeafRejects += o.LeafRejects
	s.Propagations += o.Propagations
	s.Steals += o.Steals
	s.ConflictC3 += o.ConflictC3
	s.ConflictSize += o.ConflictSize
	s.ConflictClique += o.ConflictClique
	s.ConflictArea += o.ConflictArea
	s.ConflictC4 += o.ConflictC4
	s.ConflictOrient += o.ConflictOrient
	s.ConflictGamma += o.ConflictGamma
	s.ForcedC3 += o.ForcedC3
	s.ForcedC4 += o.ForcedC4
	s.ForcedClique += o.ForcedClique
	s.ForcedArea += o.ForcedArea
	s.ForcedOrient += o.ForcedOrient
	s.ForcedSize += o.ForcedSize
	s.RejectChordal += o.RejectChordal
	s.RejectStable += o.RejectStable
	s.RejectOrient += o.RejectOrient
	s.RejectBounds += o.RejectBounds
}

// ConflictsByRule returns the Conflict* counters keyed by lower-cased
// rule name ("c3", "size", "clique", "area", "c4", "orient", "gamma").
// The map is built by reflection over the field names, so counters
// added later can never be silently missing from snapshots.
func (s *Stats) ConflictsByRule() map[string]int64 { return s.byPrefix("Conflict") }

// ForcedByRule returns the Forced* counters keyed by rule name.
func (s *Stats) ForcedByRule() map[string]int64 { return s.byPrefix("Forced") }

// RejectsByReason returns the Reject* leaf-rejection counters keyed by
// reason name.
func (s *Stats) RejectsByReason() map[string]int64 { return s.byPrefix("Reject") }

func (s *Stats) byPrefix(prefix string) map[string]int64 {
	rv := reflect.ValueOf(s).Elem()
	rt := rv.Type()
	out := make(map[string]int64)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if len(name) > len(prefix) && strings.HasPrefix(name, prefix) {
			out[strings.ToLower(name[len(prefix):])] = rv.Field(i).Int()
		}
	}
	return out
}
