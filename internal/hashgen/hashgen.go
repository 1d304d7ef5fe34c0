// Package hashgen searches for customized hash functions that map a
// sparse set of aggregate-pc words to small, distinct indices, so that
// the N-way branch at the end of each meta state compiles to a dense
// jump table ("Coding Multiway Branches Using Customized Hash
// Functions", Dietz TR-EE 92-31; §3.2 of the MSC paper — e.g. the
// ((apc >> 6) ^ apc) & 15 switch of Listing 5).
//
// The search tries function forms in increasing evaluation-cost order
// within increasing table sizes, so the first hit is the cheapest
// perfect hash with the densest table:
//
//  1. (w >> a) & mask                      — 2 cycles
//  2. ((w >> a) ^ (w >> b)) & mask         — 4 cycles
//  3. ((w*M) >> s) & mask (Fibonacci mul)  — 8 cycles
//
// Candidates are tested in exactly that order without allocating: a
// loop specialised to the candidate's form marks each key's index in
// one generation-stamped occupancy table, allocated once per search, and
// only the winner becomes a *simd.HashFn. Exploding automata (§1.2) run
// a search per multiway meta state and millions of candidates per
// compile, so a candidate must cost no more than its loop over the keys.
package hashgen

import (
	"fmt"
	"math/bits"

	"msc/internal/simd"
)

// Costs of the candidate forms in control-unit cycles.
const (
	costShift = 2
	costXor   = 4
	costMul   = 8
)

// maxTableBits bounds the jump table at 2^16 entries, so more than 2^16
// keys can have no perfect hash and are rejected up front.
const maxTableBits = 16

// fibonacci multipliers tried for the multiplicative form (2^64/φ and a
// few standard mixers).
var multipliers = []uint64{
	0x9e3779b97f4a7c15,
	0xff51afd7ed558ccd,
	0xc4ceb9fe1a85ec53,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
}

// Find returns the cheapest perfect hash over keys from the candidate
// family. Keys must be non-empty and distinct, and at most 2^16 of them
// (the largest table).
func Find(keys []uint64) (*simd.HashFn, error) {
	h, _, err := Search(keys)
	return h, err
}

// Search is Find plus observability: it also reports how many candidate
// functions were evaluated before the winner (or exhaustion), the
// search-effort number the compile metrics record.
func Search(keys []uint64) (*simd.HashFn, int, error) {
	tried := 0
	if len(keys) == 0 {
		return nil, tried, fmt.Errorf("hashgen: no keys")
	}
	if len(keys) > 1<<maxTableBits {
		return nil, tried, fmt.Errorf("hashgen: %d keys exceed the largest table size 2^%d",
			len(keys), maxTableBits)
	}
	minBits := bits.Len(uint(len(keys) - 1))
	maxBits := min(minBits+4, maxTableBits)
	occ := occupancy{stamps: make([]uint32, 1<<maxBits)}
	if k, dup := occ.duplicate(keys); dup {
		return nil, tried, fmt.Errorf("hashgen: duplicate key %#x", k)
	}

	for b := minBits; b <= maxBits; b++ {
		mask := uint64(1)<<uint(b) - 1

		// Form 1: single shift.
		for a := uint(0); a < 64; a++ {
			tried++
			if occ.shift(keys, a, mask) {
				return &simd.HashFn{ShiftA: int(a), Mask: mask, EvalCost: costShift}, tried, nil
			}
		}
		// Form 2: xor of two shifts (the Listing 5 shape).
		for a := uint(0); a < 64; a++ {
			for c := a + 1; c < 64; c++ {
				tried++
				if occ.xor(keys, a, c, mask) {
					return &simd.HashFn{
						ShiftA: int(a), ShiftB: int(c), UseB: true,
						Mask: mask, EvalCost: costXor,
					}, tried, nil
				}
			}
		}
		// Form 3: multiplicative. ShiftA=64 zeroes the plain term.
		for _, m := range multipliers {
			for s := 64 - b; s >= 32; s -= 4 {
				tried++
				if occ.mul(keys, m, uint(s), mask) {
					return &simd.HashFn{
						ShiftA: 64, UseMul: true, Mul: m, ShiftM: s,
						Mask: mask, EvalCost: costMul,
					}, tried, nil
				}
			}
		}
	}
	return nil, tried, fmt.Errorf("hashgen: no perfect hash found for %d keys within table size 2^%d",
		len(keys), maxBits)
}

// occupancy is the search's one jump-table-sized scratch. Each
// candidate test starts a new generation, so a slot is taken iff it
// holds the current one and the table is never cleared between
// candidates. A search tests a few thousand candidates per table size,
// far from wrapping the stamp.
type occupancy struct {
	stamps []uint32
	gen    uint32
}

// duplicate returns the first key that repeats an earlier one. It uses
// the table as an open-addressed set of key positions (the table has
// at least len(keys) slots, so probing ends) and leaves it clear when
// the keys are distinct.
func (o *occupancy) duplicate(keys []uint64) (uint64, bool) {
	mask := uint64(len(o.stamps) - 1)
	shift := uint(64 - bits.Len64(mask))
	for i, k := range keys {
		j := (k * multipliers[0]) >> shift // Fibonacci hashing spreads sparse keys
		for ; o.stamps[j] != 0; j = (j + 1) & mask {
			if keys[o.stamps[j]-1] == k {
				return k, true
			}
		}
		o.stamps[j] = uint32(i + 1)
	}
	clear(o.stamps)
	return 0, false
}

// shift reports whether (k >> a) & mask is distinct over keys.
func (o *occupancy) shift(keys []uint64, a uint, mask uint64) bool {
	o.gen++
	g, t := o.gen, o.stamps
	for _, k := range keys {
		i := (k >> a) & mask
		if t[i] == g {
			return false
		}
		t[i] = g
	}
	return true
}

// xor reports whether ((k >> a) ^ (k >> c)) & mask is distinct over keys.
func (o *occupancy) xor(keys []uint64, a, c uint, mask uint64) bool {
	o.gen++
	g, t := o.gen, o.stamps
	for _, k := range keys {
		i := ((k >> a) ^ (k >> c)) & mask
		if t[i] == g {
			return false
		}
		t[i] = g
	}
	return true
}

// mul reports whether ((k * m) >> s) & mask is distinct over keys.
func (o *occupancy) mul(keys []uint64, m uint64, s uint, mask uint64) bool {
	o.gen++
	g, t := o.gen, o.stamps
	for _, k := range keys {
		i := ((k * m) >> s) & mask
		if t[i] == g {
			return false
		}
		t[i] = g
	}
	return true
}

// TableDensity reports how full the jump table is: keys / table size.
func TableDensity(h *simd.HashFn, nkeys int) float64 {
	return float64(nkeys) / float64(h.Mask+1)
}

// LinearDispatchCost models the naive alternative the hash replaces:
// a chain of compare-and-branch over n keys costs 2 cycles per probe
// and on average probes half the chain.
func LinearDispatchCost(n int) int {
	if n <= 1 {
		return 2
	}
	return 2 * ((n + 1) / 2)
}
