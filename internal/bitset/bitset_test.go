package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(10)
	if !s.Empty() {
		t.Fatalf("new set not empty")
	}
	s.Add(3)
	s.Add(200) // forces growth past one word
	s.Add(3)   // duplicate add is a no-op
	if !s.Has(3) || !s.Has(200) {
		t.Fatalf("missing added elements: %v", s)
	}
	if s.Has(4) || s.Has(199) || s.Has(-1) {
		t.Fatalf("spurious elements: %v", s)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	s.Remove(3)
	if s.Has(3) {
		t.Fatalf("Remove failed")
	}
	s.Remove(3)    // removing absent id is a no-op
	s.Remove(5000) // beyond allocated words is a no-op
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Add(-1) did not panic")
		}
	}()
	New(0).Add(-1)
}

func TestOfAndElems(t *testing.T) {
	s := Of(9, 2, 6, 2)
	want := []int{2, 6, 9}
	if got := s.Elems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %d/%d, want 2/9", s.Min(), s.Max())
	}
	if s.String() != "{2,6,9}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestEmptyMinMax(t *testing.T) {
	s := New(0)
	if s.Min() != -1 || s.Max() != -1 {
		t.Fatalf("empty Min/Max = %d/%d, want -1/-1", s.Min(), s.Max())
	}
	if s.String() != "{}" {
		t.Fatalf("empty String = %q", s.String())
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 70)
	b := Of(3, 4, 70, 130)
	if got := a.Union(b).Elems(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 70, 130}) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b).Elems(); !reflect.DeepEqual(got, []int{3, 70}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Minus(b).Elems(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Minus = %v", got)
	}
	if !a.Intersects(b) || a.Intersects(Of(99)) {
		t.Fatalf("Intersects wrong")
	}
	if !Of(3).Subset(a) || Of(3, 5).Subset(a) {
		t.Fatalf("Subset wrong")
	}
	c := a.Clone()
	c.UnionWith(b)
	if !c.Equal(a.Union(b)) {
		t.Fatalf("UnionWith = %v", c)
	}
	if !a.Equal(Of(70, 3, 2, 1)) {
		t.Fatalf("Equal order-sensitive")
	}
}

func TestEqualDifferentWordLengths(t *testing.T) {
	a := Of(1)
	b := Of(1)
	b.Add(200)
	b.Remove(200) // leaves trailing zero words allocated
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("Equal should ignore trailing zero words")
	}
	if a.Key() != b.Key() {
		t.Fatalf("Key should ignore trailing zero words")
	}
}

func TestWordFastPath(t *testing.T) {
	s := Of(0, 5, 63)
	w, ok := s.Word()
	if !ok || w != 1|1<<5|1<<63 {
		t.Fatalf("Word = %x, %v", w, ok)
	}
	s.Add(64)
	if _, ok := s.Word(); ok {
		t.Fatalf("Word should report overflow past bit 63")
	}
	if w2, ok := FromWord(w).Word(); !ok || w2 != w {
		t.Fatalf("FromWord roundtrip = %x, %v", w2, ok)
	}
	if !FromWord(0).Empty() {
		t.Fatalf("FromWord(0) not empty")
	}
}

// randomIDs converts quick-generated raw values into small non-negative ids.
func randomIDs(raw []uint16) []int {
	ids := make([]int, len(raw))
	for i, v := range raw {
		ids[i] = int(v % 300)
	}
	return ids
}

func TestQuickElemsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		s := Of(randomIDs(raw)...)
		e := s.Elems()
		return sort.IntsAreSorted(e) && len(e) == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionCommutes(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a, b := Of(randomIDs(ra)...), Of(randomIDs(rb)...)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// a − (b ∪ c) == (a − b) − c
	f := func(ra, rb, rc []uint16) bool {
		a, b, c := Of(randomIDs(ra)...), Of(randomIDs(rb)...), Of(randomIDs(rc)...)
		return a.Minus(b.Union(c)).Equal(a.Minus(b).Minus(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectViaMinus(t *testing.T) {
	// a ∩ b == a − (a − b)
	f := func(ra, rb []uint16) bool {
		a, b := Of(randomIDs(ra)...), Of(randomIDs(rb)...)
		return a.Intersect(b).Equal(a.Minus(a.Minus(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyCanonical(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		ids := randomIDs(raw)
		a := Of(ids...)
		// Insert in a different order; keys must match.
		r := rand.New(rand.NewSource(seed))
		b := New(0)
		for _, i := range r.Perm(len(ids)) {
			b.Add(ids[i])
		}
		return a.Key() == b.Key() && a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsetUnion(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a, b := Of(randomIDs(ra)...), Of(randomIDs(rb)...)
		u := a.Union(b)
		return a.Subset(u) && b.Subset(u) && a.Intersect(b).Subset(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnion(b *testing.B) {
	x := Of(1, 5, 9, 64, 128, 200)
	y := Of(2, 5, 70, 199)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Union(y)
	}
}

func BenchmarkKey(b *testing.B) {
	x := Of(1, 5, 9, 64, 128, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Key()
	}
}

func TestQuickHashMatchesEqual(t *testing.T) {
	if err := quick.Check(func(ra, rb []uint16) bool {
		a, b := Of(randomIDs(ra)...), Of(randomIDs(rb)...)
		if a.Equal(b) && a.Hash() != b.Hash() {
			return false
		}
		// Capacity padding must not change the hash.
		c := a.Clone()
		c.grow(len(c.words) + 3)
		return c.Hash() == a.Hash()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareMatchesKeyOrder(t *testing.T) {
	if err := quick.Check(func(ra, rb []uint16) bool {
		a, b := Of(randomIDs(ra)...), Of(randomIDs(rb)...)
		want := strings.Compare(a.Key(), b.Key())
		if a.Compare(b) != want || b.Compare(a) != -want {
			return false
		}
		// Padding must not change the order either.
		c := a.Clone()
		c.grow(len(c.words) + 2)
		return c.Compare(b) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var ss []*Set
	for i := 0; i < 100; i++ {
		s := New(0)
		for j := 0; j < r.Intn(8); j++ {
			s.Add(r.Intn(200))
		}
		ss = append(ss, s)
	}
	byKey := append([]*Set(nil), ss...)
	sort.Slice(byKey, func(i, j int) bool { return byKey[i].Key() < byKey[j].Key() })
	Sort(ss)
	for i := range ss {
		if !ss[i].Equal(byKey[i]) {
			t.Fatalf("Sort order diverges from Key order at %d: %s vs %s", i, ss[i], byKey[i])
		}
	}
}

func TestInPlaceOps(t *testing.T) {
	a, b := Of(1, 2, 65, 130), Of(2, 3, 65)
	dst := New(0)
	dst.UnionOf(a, b)
	if !dst.Equal(a.Union(b)) {
		t.Fatalf("UnionOf = %s, want %s", dst, a.Union(b))
	}
	// Reuse with a now-larger backing array: stale high words must clear.
	dst.UnionOf(Of(1), Of(2))
	if !dst.Equal(Of(1, 2)) {
		t.Fatalf("UnionOf reuse = %s, want {1,2}", dst)
	}
	dst.IntersectOf(a, b)
	if !dst.Equal(a.Intersect(b)) {
		t.Fatalf("IntersectOf = %s, want %s", dst, a.Intersect(b))
	}
	dst.MinusOf(a, b)
	if !dst.Equal(a.Minus(b)) {
		t.Fatalf("MinusOf = %s, want %s", dst, a.Minus(b))
	}
	dst.CopyFrom(a)
	dst.IntersectWith(b)
	if !dst.Equal(a.Intersect(b)) {
		t.Fatalf("IntersectWith = %s, want %s", dst, a.Intersect(b))
	}
	dst.CopyFrom(a)
	dst.IntersectWith(Of(1))
	if !dst.Equal(Of(1)) {
		t.Fatalf("IntersectWith a shorter set = %s, want {1}", dst)
	}
	dst.CopyFrom(a)
	if !dst.Equal(a) {
		t.Fatalf("CopyFrom = %s, want %s", dst, a)
	}
	dst.Reset()
	if !dst.Empty() || dst.Hash() != New(0).Hash() {
		t.Fatalf("Reset left elements behind: %s", dst)
	}
}

func TestForEachMatchesElems(t *testing.T) {
	s := Of(0, 7, 63, 64, 129)
	var got []int
	s.ForEach(func(id int) { got = append(got, id) })
	want := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestMakeSetsIndependent(t *testing.T) {
	sets := MakeSets(3, 70)
	sets[0].Add(69)
	sets[1].Add(0)
	sets[1].Add(200) // grows past n: must not touch sets[2]
	sets[2].Add(5)
	if !sets[0].Equal(Of(69)) || !sets[1].Equal(Of(0, 200)) || !sets[2].Equal(Of(5)) {
		t.Fatalf("sets = %s %s %s, want {69} {0,200} {5}", &sets[0], &sets[1], &sets[2])
	}
}
