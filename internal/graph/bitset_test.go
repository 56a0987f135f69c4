package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(130) // force multiple words
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(v) {
			t.Fatalf("fresh set has %d", v)
		}
		s.Add(v)
		if !s.Has(v) {
			t.Fatalf("set missing %d after Add", v)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if s.Next(0) != 0 {
		t.Fatalf("Next(0) = %d, want 0", s.Next(0))
	}
	s.Remove(0)
	if s.Has(0) || s.Next(0) != 1 {
		t.Fatalf("Remove(0) failed: Next(0) = %d", s.Next(0))
	}
	if s.Cap() != 130 {
		t.Fatalf("Cap = %d", s.Cap())
	}
}

func TestSetAddIdempotent(t *testing.T) {
	s := NewSet(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Fatalf("double Add changed count: %d", s.Count())
	}
	s.Remove(7) // removing an absent vertex is a no-op
	if s.Count() != 1 {
		t.Fatalf("Remove of absent vertex changed count: %d", s.Count())
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(100)
	b := NewSet(100)
	for _, v := range []int{1, 5, 70} {
		a.Add(v)
	}
	for _, v := range []int{5, 70, 99} {
		b.Add(v)
	}

	u := a.Clone()
	u.UnionWith(b)
	if got := u.Slice(); len(got) != 4 || got[0] != 1 || got[3] != 99 {
		t.Fatalf("union = %v", got)
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got := i.Slice(); len(got) != 2 || got[0] != 5 || got[1] != 70 {
		t.Fatalf("intersection = %v", got)
	}

	d := a.Clone()
	d.SubtractWith(b)
	if got := d.Slice(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("difference = %v", got)
	}

	if !i.SubsetOf(a) || !i.SubsetOf(b) {
		t.Fatal("intersection not subset of operands")
	}
	if a.SubsetOf(b) {
		t.Fatal("a should not be subset of b")
	}
	if a.IntersectionCount(b) == 0 {
		t.Fatal("a and b share 5, 70")
	}
	if d.IntersectionCount(b) != 0 {
		t.Fatal("difference should not intersect b")
	}
}

func TestSetCloneIndependence(t *testing.T) {
	a := NewSet(64)
	a.Add(10)
	b := a.Clone()
	b.Add(20)
	if a.Has(20) {
		t.Fatal("Clone shares storage with original")
	}
	b.CopyFrom(a)
	if b.Has(20) || !b.Has(10) {
		t.Fatal("CopyFrom failed")
	}
}

func TestSetEqualAndClear(t *testing.T) {
	a, b := NewSet(70), NewSet(70)
	a.Add(69)
	if a.Equal(b) {
		t.Fatal("unequal sets compare equal")
	}
	b.Add(69)
	if !a.Equal(b) {
		t.Fatal("equal sets compare unequal")
	}
	if a.Equal(NewSet(71)) {
		t.Fatal("sets of different capacity compare equal")
	}
	a.Clear()
	if !a.Empty() {
		t.Fatal("Clear left elements")
	}
	if a.Next(0) != -1 {
		t.Fatalf("Next(0) of empty = %d, want -1", a.Next(0))
	}
}

func TestSetForEachOrder(t *testing.T) {
	s := NewSet(200)
	want := []int{0, 63, 64, 100, 199}
	for _, v := range want {
		s.Add(v)
	}
	var got []int
	s.ForEach(func(v int) { got = append(got, v) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch: got %v, want %v", got, want)
		}
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(10)
	if s.String() != "{}" {
		t.Fatalf("empty String = %q", s.String())
	}
	s.Add(2)
	s.Add(7)
	if s.String() != "{2 7}" {
		t.Fatalf("String = %q", s.String())
	}
}

// TestSetQuickAgainstMap cross-checks the bitset against a map reference
// under random operation sequences.
func TestSetQuickAgainstMap(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 150
		s := NewSet(n)
		ref := map[int]bool{}
		for i := 0; i < int(nOps); i++ {
			v := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(v)
				ref[v] = true
			case 1:
				s.Remove(v)
				delete(ref, v)
			case 2:
				if s.Has(v) != ref[v] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, v := range s.Slice() {
			if !ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetIntersectOf(t *testing.T) {
	a, b, dst := NewSet(130), NewSet(130), NewSet(130)
	for _, v := range []int{1, 63, 64, 100, 129} {
		a.Add(v)
	}
	for _, v := range []int{63, 64, 99, 129} {
		b.Add(v)
	}
	dst.Add(7) // stale content must be overwritten
	dst.IntersectOf(a, b)
	want := NewSet(130)
	for _, v := range []int{63, 64, 129} {
		want.Add(v)
	}
	if !dst.Equal(want) {
		t.Fatalf("IntersectOf = %v, want %v", dst, want)
	}
	// Receiver aliasing an operand.
	a.IntersectOf(a, b)
	if !a.Equal(want) {
		t.Fatalf("aliased IntersectOf = %v, want %v", a, want)
	}
}

func TestSetIntersectsBoth(t *testing.T) {
	s, a, b := NewSet(130), NewSet(130), NewSet(130)
	for _, v := range []int{5, 100} {
		s.Add(v)
	}
	a.Add(5)
	a.Add(129)
	b.Add(100)
	b.Add(129)
	// Pairwise overlaps (s∩a, s∩b, a∩b) but no common vertex.
	if s.IntersectsBoth(a, b) {
		t.Fatal("IntersectsBoth true without a common vertex")
	}
	a.Add(100)
	if !s.IntersectsBoth(a, b) {
		t.Fatal("IntersectsBoth missed common vertex 100 in the second word")
	}
}

func TestSetIntersectionCount(t *testing.T) {
	s, o := NewSet(130), NewSet(130)
	for _, v := range []int{0, 63, 64, 100, 129} {
		s.Add(v)
	}
	for _, v := range []int{1, 63, 100, 129} {
		o.Add(v)
	}
	if got := s.IntersectionCount(o); got != 3 {
		t.Fatalf("IntersectionCount = %d, want 3", got)
	}
	if got := s.IntersectionCount(NewSet(130)); got != 0 {
		t.Fatalf("IntersectionCount with the empty set = %d", got)
	}
}

func TestSetAddCommonAndNoneOf(t *testing.T) {
	a, b, c := NewSet(70), NewSet(70), NewSet(70)
	for _, v := range []int{1, 2, 65} {
		a.Add(v)
		b.Add(v)
	}
	c.Add(2)
	c.Add(65)
	s := NewSet(70)
	s.Add(0)
	s.AddCommon(a, b, c)
	if got := s.Slice(); !reflect.DeepEqual(got, []int{0, 2, 65}) {
		t.Fatalf("AddCommon = %v, want [0 2 65]", got)
	}
	s.Clear()
	s.AddNoneOf(a, b, c)
	// Everything below the capacity except 1, 2, 65 — and nothing past it.
	if s.Count() != 67 || s.Has(1) || s.Has(2) || s.Has(65) || !s.Has(0) || !s.Has(69) {
		t.Fatalf("AddNoneOf = %v", s)
	}
}

func TestSetNext(t *testing.T) {
	s := NewSet(130)
	for _, v := range []int{3, 63, 64, 129} {
		s.Add(v)
	}
	var got []int
	for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
		got = append(got, v)
	}
	if !reflect.DeepEqual(got, []int{3, 63, 64, 129}) {
		t.Fatalf("Next walk = %v", got)
	}
	if s.Next(130) != -1 || s.Next(-5) != 3 || NewSet(10).Next(0) != -1 {
		t.Fatal("Next out-of-range or empty cases wrong")
	}
}

func TestSetSumAndMax(t *testing.T) {
	s := NewSet(70)
	w := make([]int, 70)
	if sum, arg, max := s.SumAndMax(w); sum != 0 || arg != -1 || max != -1 {
		t.Fatalf("empty SumAndMax = (%d,%d,%d)", sum, arg, max)
	}
	w[3], w[64], w[69] = 5, 9, 9
	for _, v := range []int{3, 64, 69} {
		s.Add(v)
	}
	sum, arg, max := s.SumAndMax(w)
	if sum != 23 || max != 9 {
		t.Fatalf("SumAndMax = (%d,%d,%d), want sum 23 max 9", sum, arg, max)
	}
	if arg != 64 { // ties break to the smallest vertex
		t.Fatalf("SumAndMax argmax = %d, want 64", arg)
	}
}
