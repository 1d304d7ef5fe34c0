package simd

import (
	"fmt"
	"math/bits"
)

// PEHistExactMax is the largest machine width at which Result.PEHist is
// exact (length N+1, one bucket per possible enabled-PE count). Above
// it an exact histogram would cost O(N) memory per run for no analytic
// gain, so the histogram switches to log₂ buckets.
const PEHistExactMax = 4096

// ObsWidthCap is the largest machine width at which a sink that reads
// the per-PE EventTimeline rows (obs.ReadsRows: a TextSink with a
// Timeline writer, a JSONLSink, any custom sink) is supported. A row is
// O(N) work per meta state; above the cap Run refuses such a sink with
// a *WidthLimitError instead of silently crawling. A TextSink that
// renders only the text trace (one line per meta state, no per-PE
// payload) runs at any width.
const ObsWidthCap = 1 << 16

// WidthLimitError reports a sink that reads per-PE rows attached above
// ObsWidthCap. Matchable with errors.As.
type WidthLimitError struct {
	N, Cap int
}

func (e *WidthLimitError) Error() string {
	return fmt.Sprintf("simd: a sink that reads per-PE timeline rows is unsupported above width %d (N=%d): a row is O(N) per meta state",
		e.Cap, e.N)
}

// PEHistLen returns the histogram length for machine width n: n+1 when
// exact, bits.Len(n)+1 when bucketed (bucket 0 plus one bucket per
// power of two up to n).
func PEHistLen(n int) int {
	if n <= PEHistExactMax {
		return n + 1
	}
	return bits.Len(uint(n)) + 1
}

// PEHistIndex returns the PEHist bucket for a slot with `enabled` PEs
// enabled on a width-n machine. Exact widths index directly; bucketed
// widths map 0 to bucket 0 and enabled ∈ [2^(k-1), 2^k) to bucket k,
// so the cycle mass invariant (sum(PEHist) == BodyCycles) holds in
// both modes.
func PEHistIndex(n, enabled int) int {
	if n <= PEHistExactMax {
		return enabled
	}
	return bits.Len(uint(enabled))
}
