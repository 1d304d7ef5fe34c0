// Package bitset implements dense bit sets used to represent meta states:
// aggregate sets of MIMD state IDs. A meta state is exactly the "apc"
// (aggregate program counter) of the paper's §3.2.3 — the global-or of
// 1<<pc over all processing elements — generalized past 64 states.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Set is a dense bit set. The zero value is an empty set ready to use.
// Methods that mutate the receiver have pointer receivers; all others
// accept value receivers and never modify their operands.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity hints for ids < n.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// MakeSets returns k empty sets with room for ids < n, carved from one
// backing array: two allocations for any k. Each set's capacity is
// capped at its own words, so a set that grows past n reallocates
// instead of spilling into its neighbour.
func MakeSets(k, n int) []Set {
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, k*w)
	sets := make([]Set, k)
	for i := range sets {
		sets[i].words = words[i*w : (i+1)*w : (i+1)*w]
	}
	return sets
}

// Of returns a set containing exactly the given ids.
func Of(ids ...int) *Set {
	s := &Set{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// FromWord returns a set whose first 64 bits are w (the uint64 apc fast
// path of §3.2.3).
func FromWord(w uint64) *Set {
	if w == 0 {
		return &Set{}
	}
	return &Set{words: []uint64{w}}
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts id into the set. id must be non-negative.
func (s *Set) Add(id int) {
	if id < 0 {
		panic(fmt.Sprintf("bitset: negative id %d", id))
	}
	w := id / wordBits
	s.grow(w)
	s.words[w] |= 1 << (uint(id) % wordBits)
}

// Remove deletes id from the set; removing an absent id is a no-op.
func (s *Set) Remove(id int) {
	w := id / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(id) % wordBits)
	}
}

// Has reports whether id is in the set.
func (s *Set) Has(id int) bool {
	if id < 0 {
		return false
	}
	w := id / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%wordBits)) != 0
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Union returns a new set s ∪ t.
func (s *Set) Union(t *Set) *Set {
	longer, shorter := s.words, t.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	out := make([]uint64, len(longer))
	copy(out, longer)
	for i, w := range shorter {
		out[i] |= w
	}
	return &Set{words: out}
}

// Intersect returns a new set s ∩ t.
func (s *Set) Intersect(t *Set) *Set {
	n := min(len(s.words), len(t.words))
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = s.words[i] & t.words[i]
	}
	return &Set{words: out}
}

// Minus returns a new set s − t.
func (s *Set) Minus(t *Set) *Set {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	for i := 0; i < len(out) && i < len(t.words); i++ {
		out[i] &^= t.words[i]
	}
	return &Set{words: out}
}

// UnionWith adds every element of t to s in place.
func (s *Set) UnionWith(t *Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s, in place, every element not in t.
func (s *Set) IntersectWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// setLen resizes s.words to exactly n entries, reusing the backing array
// when it is large enough. Newly exposed entries are NOT cleared; every
// caller overwrites them.
func (s *Set) setLen(n int) {
	if cap(s.words) < n {
		s.words = make([]uint64, n)
		return
	}
	s.words = s.words[:n]
}

// Reset empties the set in place, keeping the backing array for reuse.
func (s *Set) Reset() {
	s.words = s.words[:0]
}

// CopyFrom makes s an exact copy of t, reusing s's backing array.
func (s *Set) CopyFrom(t *Set) {
	s.setLen(len(t.words))
	copy(s.words, t.words)
}

// UnionOf makes s = a ∪ b, reusing s's backing array. s must not alias
// a or b.
func (s *Set) UnionOf(a, b *Set) {
	longer, shorter := a.words, b.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	s.setLen(len(longer))
	copy(s.words, longer)
	for i, w := range shorter {
		s.words[i] |= w
	}
}

// IntersectOf makes s = a ∩ b, reusing s's backing array. s must not
// alias a or b.
func (s *Set) IntersectOf(a, b *Set) {
	n := min(len(a.words), len(b.words))
	s.setLen(n)
	for i := 0; i < n; i++ {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// MinusOf makes s = a − b, reusing s's backing array. s must not alias
// a or b.
func (s *Set) MinusOf(a, b *Set) {
	s.setLen(len(a.words))
	copy(s.words, a.words)
	for i := 0; i < len(s.words) && i < len(b.words); i++ {
		s.words[i] &^= b.words[i]
	}
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	longer, shorter := s.words, t.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	for i := range shorter {
		if longer[i] != shorter[i] {
			return false
		}
	}
	for _, w := range longer[len(shorter):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Subset reports whether every element of s is in t.
func (s *Set) Subset(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is non-empty.
func (s *Set) Intersects(t *Set) bool {
	n := min(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Word returns the first 64 bits of the set and whether the set fits
// entirely within them. This is the §3.2.3 one-bit-per-pc apc word used
// by the hashed multiway-branch fast path.
func (s *Set) Word() (uint64, bool) {
	var w uint64
	if len(s.words) > 0 {
		w = s.words[0]
	}
	for _, hi := range s.words[1:] {
		if hi != 0 {
			return w, false
		}
	}
	return w, true
}

// Words returns the set's canonical backing words — trailing zero
// words trimmed, so Equal sets return equal slices. The slice aliases
// the set's storage and must not be mutated; it exists for serializers
// (the artifact codec) that need the dense representation without the
// per-element cost of Elems.
func (s *Set) Words() []uint64 {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	return s.words[:n]
}

// FromWords returns a set backed by a copy of the given words (the
// inverse of Words; the codec's deserialization path).
func FromWords(words []uint64) *Set {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return &Set{}
	}
	return &Set{words: append([]uint64(nil), words[:n]...)}
}

// Key returns a canonical string key usable as a map key. Two sets have
// equal keys iff they are Equal.
func (s *Set) Key() string {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	var b strings.Builder
	b.Grow(n * 8)
	for i := 0; i < n; i++ {
		w := s.words[i]
		for j := 0; j < 8; j++ {
			b.WriteByte(byte(w >> (8 * j)))
		}
	}
	return b.String()
}

// FNV-1a parameters, applied one 64-bit word at a time instead of per
// byte: meta-state conversion hashes millions of sets, and word-at-a-time
// folding keeps the cost at one xor+multiply per 64 states.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit hash of the set's contents. Equal sets hash
// equally regardless of backing-array capacity (trailing zero words are
// ignored). This is the hot-path replacement for hashing Key(): no
// allocation, one multiply per word.
func (s *Set) Hash() uint64 {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	h := uint64(fnvOffset64)
	for _, w := range s.words[:n] {
		h ^= w
		h *= fnvPrime64
	}
	return h
}

// Compare orders sets exactly as strings.Compare orders their Key()
// serializations (the canonical order used for transition sorting and
// golden output), without materializing the keys: -1, 0, or +1. Key()
// writes each word little-endian, so byte-lexicographic order within a
// word is the numeric order of the byte-reversed word.
func (s *Set) Compare(t *Set) int {
	ns, nt := len(s.words), len(t.words)
	for ns > 0 && s.words[ns-1] == 0 {
		ns--
	}
	for nt > 0 && t.words[nt-1] == 0 {
		nt--
	}
	n := min(ns, nt)
	for i := 0; i < n; i++ {
		if s.words[i] != t.words[i] {
			if bits.ReverseBytes64(s.words[i]) < bits.ReverseBytes64(t.words[i]) {
				return -1
			}
			return 1
		}
	}
	switch {
	case ns < nt:
		return -1
	case ns > nt:
		return 1
	}
	return 0
}

// Sort sorts sets into the canonical Compare order (identical to sorting
// by Key(), without the key allocations).
func Sort(ss []*Set) {
	slices.SortFunc(ss, (*Set).Compare)
}

// ForEach calls f for each element in increasing order. It is the
// allocation-free alternative to ranging over Elems().
func (s *Set) ForEach(f func(id int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String formats the set as {a,b,c} with elements in increasing order.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte('}')
	return b.String()
}
