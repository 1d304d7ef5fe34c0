package hashgen

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"msc/internal/simd"
)

func TestListing5Keys(t *testing.T) {
	// The switch at the end of Listing 5's ms_0 dispatches on aggregates
	// BIT(2), BIT(6), and BIT(2)|BIT(6).
	keys := []uint64{1 << 2, 1 << 6, 1<<2 | 1<<6}
	h, err := Find(keys)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		idx := h.Index(k)
		if idx > h.Mask {
			t.Fatalf("index %d exceeds mask %d", idx, h.Mask)
		}
		if seen[idx] {
			t.Fatalf("collision at %d", idx)
		}
		seen[idx] = true
	}
	// Three keys fit a four-entry table: density >= 0.75.
	if d := TableDensity(h, len(keys)); d < 0.75 {
		t.Fatalf("table density = %.2f, want >= 0.75 (mask %#x)", d, h.Mask)
	}
}

func TestFiveWayFinalSwitch(t *testing.T) {
	// ms_2_6's five-way switch: {2,6}, {9}, {6,9}, {2,9}, {2,6,9}.
	bit := func(is ...int) (w uint64) {
		for _, i := range is {
			w |= 1 << uint(i)
		}
		return
	}
	keys := []uint64{bit(2, 6), bit(9), bit(6, 9), bit(2, 9), bit(2, 6, 9)}
	h, err := Find(keys)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		if idx := h.Index(k); seen[idx] {
			t.Fatalf("collision")
		} else {
			seen[idx] = true
		}
	}
	if h.Mask+1 > 16 {
		t.Fatalf("table size %d for 5 keys, want <= 16", h.Mask+1)
	}
}

func TestSingleKey(t *testing.T) {
	h, err := Find([]uint64{0xdeadbeef})
	if err != nil {
		t.Fatal(err)
	}
	if h.Mask != 0 || h.Index(0xdeadbeef) != 0 {
		t.Fatalf("single key should map to a one-entry table, got mask %d", h.Mask)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Find(nil); err == nil {
		t.Fatal("empty key set accepted")
	}
	if _, err := Find([]uint64{5, 5}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	// The first repeat is reported, before any candidate is tested.
	_, tried, err := Search([]uint64{1, 7, 3, 9, 3, 7})
	if err == nil || tried != 0 || !strings.Contains(err.Error(), "duplicate key 0x3") {
		t.Fatalf("Search with duplicates: tried %d, err %v; want duplicate key 0x3 and no candidates", tried, err)
	}
}

// referenceSearch is the candidate loop Search replaced, kept as its
// oracle: one *simd.HashFn per candidate, in the documented order, each
// checked with HashFn.Index. Keys must be distinct and at most 2^16.
func referenceSearch(keys []uint64) (*simd.HashFn, int) {
	tried := 0
	minBits := bits.Len(uint(len(keys) - 1))
	perfect := func(h *simd.HashFn) bool {
		tried++
		used := make(map[uint64]bool, len(keys))
		for _, k := range keys {
			idx := h.Index(k)
			if used[idx] {
				return false
			}
			used[idx] = true
		}
		return true
	}
	for b := minBits; b <= minBits+4 && b <= 16; b++ {
		mask := uint64(1)<<uint(b) - 1
		for a := 0; a < 64; a++ {
			if h := (&simd.HashFn{ShiftA: a, Mask: mask, EvalCost: costShift}); perfect(h) {
				return h, tried
			}
		}
		for a := 0; a < 64; a++ {
			for c := a + 1; c < 64; c++ {
				h := &simd.HashFn{ShiftA: a, ShiftB: c, UseB: true, Mask: mask, EvalCost: costXor}
				if perfect(h) {
					return h, tried
				}
			}
		}
		for _, m := range multipliers {
			for s := 64 - b; s >= 32; s -= 4 {
				h := &simd.HashFn{ShiftA: 64, UseMul: true, Mul: m, ShiftM: s, Mask: mask, EvalCost: costMul}
				if perfect(h) {
					return h, tried
				}
			}
		}
	}
	return nil, tried
}

// sparseKeys draws n distinct aggregate-like words with 1..maxBits set
// bits among the low width bits.
func sparseKeys(r *rand.Rand, n, width, maxBits int) []uint64 {
	keys := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	for len(keys) < n {
		var w uint64
		for i := r.Intn(maxBits); i >= 0; i-- {
			w |= 1 << uint(r.Intn(width))
		}
		if !seen[w] {
			seen[w] = true
			keys = append(keys, w)
		}
	}
	return keys
}

// checkAgainstReference fails unless Search returns the reference's
// function fields and tried count on keys.
func checkAgainstReference(t *testing.T, name string, keys []uint64) {
	t.Helper()
	want, wantTried := referenceSearch(keys)
	got, tried, err := Search(keys)
	if tried != wantTried {
		t.Fatalf("%s: tried = %d, reference tried %d", name, tried, wantTried)
	}
	if (err != nil) != (want == nil) {
		t.Fatalf("%s: err = %v, reference found %v", name, err, want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Search = %+v, reference = %+v", name, got, want)
	}
	if got != nil {
		// The specialised loops must agree with HashFn.Index itself.
		used := map[uint64]bool{}
		for _, k := range keys {
			i := got.Index(k)
			if i > got.Mask || used[i] {
				t.Fatalf("%s: %v is not perfect under Index", name, got)
			}
			used[i] = true
		}
	}
}

func TestSearchMatchesReferenceSmall(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	forms := map[int]int{}
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(32)
		keys := sparseKeys(r, n, 64, 1+r.Intn(24))
		checkAgainstReference(t, fmt.Sprintf("set %d (%d keys)", i, n), keys)
		if h, _ := Find(keys); h != nil {
			forms[h.EvalCost]++
		}
	}
	// The sets must exercise all three forms, or the comparison proves
	// less than it claims.
	for _, cost := range []int{costShift, costXor, costMul} {
		if forms[cost] == 0 {
			t.Errorf("no random set chose the cost-%d form (forms %v)", cost, forms)
		}
	}
}

func TestSearchMatchesReferenceWideTables(t *testing.T) {
	// 65..200 keys need tables of 128 entries or more, the sizes the
	// old search checked through a map.
	r := rand.New(rand.NewSource(2))
	found := 0
	for i := 0; i < 12; i++ {
		n := 65 + r.Intn(136)
		keys := sparseKeys(r, n, 64, 6)
		checkAgainstReference(t, fmt.Sprintf("set %d (%d keys)", i, n), keys)
		if _, err := Find(keys); err == nil {
			found++
		}
	}
	if found == 0 || found == 12 {
		t.Fatalf("%d of 12 wide sets found a hash; want both outcomes compared", found)
	}
}

func TestSearchNoPerfectHash(t *testing.T) {
	// 5000 random keys: no candidate separates them at any table size,
	// and the table-size loop stops at the 2^16 cap, below the
	// 2^(minBits+4) = 2^17 the search would otherwise reach.
	r := rand.New(rand.NewSource(3))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	checkAgainstReference(t, "5000 random keys", keys)
	_, tried, err := Search(keys)
	if err == nil {
		t.Fatal("found a perfect hash for 5000 random keys")
	}
	// 4 table sizes (2^13..2^16) × (64 shifts + 2016 xors + 5 multipliers × 5 shifts).
	if want := 4 * (64 + 2016 + 25); tried != want {
		t.Fatalf("tried = %d, want %d", tried, want)
	}
	if !strings.Contains(err.Error(), "within table size 2^16") {
		t.Fatalf("error %q does not name the largest table tried, 2^16", err)
	}
}

func TestSearchRejectsOversizedKeySet(t *testing.T) {
	keys := make([]uint64, 70000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	h, tried, err := Search(keys)
	if err == nil || h != nil || tried != 0 {
		t.Fatalf("Search(70000 keys) = %v, tried %d, err %v; want an up-front error", h, tried, err)
	}
	if !strings.Contains(err.Error(), "70000 keys") || !strings.Contains(err.Error(), "2^16") {
		t.Fatalf("error %q does not name the key count and the 2^16 limit", err)
	}
	// The limit itself is accepted: 2^16 consecutive keys are a minimal
	// perfect hash under the identity shift.
	h, tried, err = Search(keys[:1<<16])
	if err != nil || tried != 1 || h.Mask != 1<<16-1 {
		t.Fatalf("Search(65536 keys) = %v, tried %d, err %v; want the identity shift", h, tried, err)
	}
}

func TestSearchAllocations(t *testing.T) {
	// A 32-key search allocates the occupancy table and the winner, no
	// matter how many candidates it tests first.
	cheap := make([]uint64, 32)
	for i := range cheap {
		cheap[i] = uint64(i) // the identity shift, the first candidate
	}
	var costly []uint64
	for r := rand.New(rand.NewSource(4)); costly == nil; {
		keys := sparseKeys(r, 32, 64, 3)
		if _, tried, err := Search(keys); err == nil && tried > 2000 {
			costly = keys
		}
	}
	for name, keys := range map[string][]uint64{"cheap": cheap, "costly": costly} {
		_, tried, _ := Search(keys)
		if allocs := testing.AllocsPerRun(20, func() { _, _, _ = Search(keys) }); allocs != 2 {
			t.Errorf("%s search (%d candidates) allocated %v objects, want 2", name, tried, allocs)
		}
	}
}

func TestQuickPerfectOnRandomKeySets(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		r := rand.New(rand.NewSource(seed))
		keys := make([]uint64, 0, n)
		seen := map[uint64]bool{}
		for len(keys) < n {
			// Sparse aggregate-like keys: a few set bits.
			var w uint64
			for i := 0; i < 3; i++ {
				w |= 1 << uint(r.Intn(32))
			}
			if w != 0 && !seen[w] {
				seen[w] = true
				keys = append(keys, w)
			}
		}
		h, err := Find(keys)
		if err != nil {
			return false
		}
		idx := map[uint64]bool{}
		for _, k := range keys {
			i := h.Index(k)
			if i > h.Mask || idx[i] {
				return false
			}
			idx[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheaperFormsPreferred(t *testing.T) {
	// Keys already distinct under a plain shift should get the cheapest
	// form (cost 2), never the multiplicative fallback.
	h, err := Find([]uint64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.EvalCost != costShift {
		t.Fatalf("eval cost = %d, want %d (plain shift)", h.EvalCost, costShift)
	}
}

func TestLinearDispatchCostGrows(t *testing.T) {
	if LinearDispatchCost(1) != 2 {
		t.Fatalf("n=1 cost = %d", LinearDispatchCost(1))
	}
	prev := 0
	for n := 2; n <= 64; n *= 2 {
		c := LinearDispatchCost(n)
		if c <= prev {
			t.Fatalf("cost not increasing at n=%d", n)
		}
		prev = c
	}
}

func TestHashStringForm(t *testing.T) {
	h, err := Find([]uint64{1 << 2, 1 << 6, 1<<2 | 1<<6})
	if err != nil {
		t.Fatal(err)
	}
	if s := h.String(); s == "" {
		t.Fatal("empty hash description")
	}
}

func BenchmarkFindSmall(b *testing.B) {
	keys := []uint64{1 << 2, 1 << 6, 1<<2 | 1<<6, 1 << 9, 1<<2 | 1<<9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Find(keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashDispatch(b *testing.B) {
	keys := []uint64{1 << 2, 1 << 6, 1<<2 | 1<<6, 1 << 9, 1<<2 | 1<<9}
	h, err := Find(keys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Index(keys[i%len(keys)])
	}
	_ = sink
}
