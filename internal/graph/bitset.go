// Package graph provides small, dense graph primitives used by the
// packing-class machinery: bitset vertex sets, undirected graphs with
// bitset adjacency, and directed graphs with reachability utilities.
//
// All graphs are over the fixed vertex set {0, …, n−1}. The instances
// handled by the solver are small (tens of vertices), so the package
// favours simplicity and cache-friendly bitset operations over
// asymptotically optimal data structures.
package graph

import (
	"math/bits"
	"strconv"
	"strings"
)

// Set is a fixed-capacity bitset over vertices 0..n-1.
// The zero value of a Set is unusable; create one with NewSet.
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set with capacity for n vertices.
func NewSet(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// NewSets returns k empty sets with capacity for n vertices each,
// carved from one allocation.
func NewSets(k, n int) []Set {
	nw := (n + 63) / 64
	words := make([]uint64, k*nw)
	sets := make([]Set, k)
	for i := range sets {
		sets[i] = Set{words: words[i*nw : (i+1)*nw : (i+1)*nw], n: n}
	}
	return sets
}

// Cap returns the vertex capacity the set was created with.
func (s Set) Cap() int { return s.n }

// Add inserts v into the set.
func (s Set) Add(v int) { s.words[v>>6] |= 1 << uint(v&63) }

// Remove deletes v from the set.
func (s Set) Remove(v int) { s.words[v>>6] &^= 1 << uint(v&63) }

// Has reports whether v is in the set.
func (s Set) Has(v int) bool { return s.words[v>>6]&(1<<uint(v&63)) != 0 }

// Count returns the number of vertices in the set.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set contains no vertices.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites the receiver with the contents of o.
// Both sets must have been created with the same capacity.
func (s Set) CopyFrom(o Set) { copy(s.words, o.words) }

// Clear removes all vertices.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionWith adds every vertex of o to s.
func (s Set) UnionWith(o Set) {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// IntersectWith removes from s every vertex not in o.
func (s Set) IntersectWith(o Set) {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// SubtractWith removes from s every vertex of o.
func (s Set) SubtractWith(o Set) {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// IntersectOf overwrites s with a ∩ b in one pass, without allocating.
// All three sets must share the same capacity. The receiver may alias
// either operand.
func (s Set) IntersectOf(a, b Set) {
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// SumAndMax returns the total weight of the set's members under w,
// together with the heaviest member and its weight. Ties go to the
// smallest vertex. An empty set yields (0, -1, -1). It exists for the
// engine's weighted-clique bound, which needs both quantities in a
// single pass over the candidate set without the per-member closure
// calls ForEach would cost.
func (s Set) SumAndMax(w []int) (sum, argmax, max int) {
	argmax, max = -1, -1
	for i, word := range s.words {
		base := i << 6
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			wv := w[v]
			sum += wv
			if wv > max {
				argmax, max = v, wv
			}
		}
	}
	return sum, argmax, max
}

// Equal reports whether s and o contain the same vertices.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every vertex of s is in o.
func (s Set) SubsetOf(o Set) bool {
	for i := range s.words {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectionCount returns |s ∩ o| without materializing the
// intersection.
func (s Set) IntersectionCount(o Set) int {
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return c
}

// IntersectsBoth reports whether s, a and b share at least one vertex,
// in one word-wise pass and without materializing a ∩ b.
func (s Set) IntersectsBoth(a, b Set) bool {
	for i := range s.words {
		if s.words[i]&a.words[i]&b.words[i] != 0 {
			return true
		}
	}
	return false
}

// AddCommon adds to s every vertex that lies in all of a, b and c.
func (s Set) AddCommon(a, b, c Set) {
	for i := range s.words {
		s.words[i] |= a.words[i] & b.words[i] & c.words[i]
	}
}

// AddNoneOf adds to s every vertex below the capacity that lies in
// none of a, b and c.
func (s Set) AddNoneOf(a, b, c Set) {
	for i := range s.words {
		s.words[i] |= ^(a.words[i] | b.words[i] | c.words[i])
	}
	if r := s.n & 63; r != 0 {
		s.words[len(s.words)-1] &= 1<<uint(r) - 1
	}
}

// Next returns the smallest vertex of the set that is >= v, or -1 if
// there is none. Iterating with Next instead of ForEach lets the caller
// see changes it makes to the set mid-iteration.
func (s Set) Next(v int) int {
	if v < 0 {
		v = 0
	}
	i := v >> 6
	if i >= len(s.words) {
		return -1
	}
	w := s.words[i] &^ (1<<uint(v&63) - 1)
	for {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
		i++
		if i == len(s.words) {
			return -1
		}
		w = s.words[i]
	}
}

// ForEach calls f for every vertex in the set, in increasing order.
func (s Set) ForEach(f func(v int)) {
	for i, w := range s.words {
		base := i << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Slice returns the vertices of the set in increasing order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(v int) { out = append(out, v) })
	return out
}

// String renders the set as "{v1 v2 ...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(strconv.Itoa(v))
	})
	b.WriteByte('}')
	return b.String()
}
