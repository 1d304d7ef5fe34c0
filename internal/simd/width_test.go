package simd

import (
	"errors"
	"io"
	"testing"

	"msc/internal/obs"
)

func TestPEHistShape(t *testing.T) {
	cases := []struct {
		n, wantLen int
		exact      bool
	}{
		{1, 2, true},
		{64, 65, true},
		{PEHistExactMax, PEHistExactMax + 1, true},
		{PEHistExactMax + 1, 14, false}, // bits.Len(4097)=13, +1
		{1 << 16, 18, false},
		{1 << 20, 22, false},
	}
	for _, c := range cases {
		if got := PEHistLen(c.n); got != c.wantLen {
			t.Errorf("PEHistLen(%d) = %d, want %d", c.n, got, c.wantLen)
		}
		if c.exact {
			for _, en := range []int{0, 1, c.n} {
				if got := PEHistIndex(c.n, en); got != en {
					t.Errorf("PEHistIndex(%d, %d) = %d, want identity", c.n, en, got)
				}
			}
			continue
		}
		// Bucketed: 0 stays bucket 0, enabled in [2^(k-1), 2^k) lands
		// in bucket k, and the top bucket is in range.
		if got := PEHistIndex(c.n, 0); got != 0 {
			t.Errorf("PEHistIndex(%d, 0) = %d, want 0", c.n, got)
		}
		for _, en := range []int{1, 2, 3, 4, 1000, c.n} {
			got := PEHistIndex(c.n, en)
			if got <= 0 || got >= PEHistLen(c.n) {
				t.Errorf("PEHistIndex(%d, %d) = %d out of range [1,%d)", c.n, en, got, PEHistLen(c.n))
			}
			lo := 1 << (got - 1)
			hi := 1 << got
			if en < lo || en >= hi {
				t.Errorf("PEHistIndex(%d, %d) = bucket %d covering [%d,%d)", c.n, en, got, lo, hi)
			}
		}
	}
}

// TestPEHistBucketedMass checks the cycle-mass invariant above the
// exact threshold: every body cycle lands in exactly one bucket.
func TestPEHistBucketedMass(t *testing.T) {
	p := testProgram(t)
	n := PEHistExactMax * 2
	res, err := Run(p, Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PEHist) != PEHistLen(n) {
		t.Fatalf("PEHist length %d, want %d", len(res.PEHist), PEHistLen(n))
	}
	var sum int64
	for _, c := range res.PEHist {
		sum += c
	}
	if sum != res.BodyCycles {
		t.Fatalf("sum(PEHist) = %d, want BodyCycles = %d", sum, res.BodyCycles)
	}
}

// TestWidthLimitErrors pins the width rule on both engines: a sink
// that reads per-PE rows is refused one PE above ObsWidthCap and runs
// at the cap; a text trace alone has no per-PE payload and runs above
// it.
func TestWidthLimitErrors(t *testing.T) {
	p := testProgram(t)
	n := ObsWidthCap + 1
	engines := []struct {
		name string
		run  func(*Program, Config) (*Result, error)
	}{{"Run", Run}, {"ReferenceRun", ReferenceRun}}
	rowSinks := []struct {
		name string
		sink obs.Sink
	}{
		{"TextSink{Timeline}", &obs.TextSink{Timeline: io.Discard}},
		{"JSONLSink", &obs.JSONLSink{W: io.Discard}},
	}
	for _, e := range engines {
		for _, s := range rowSinks {
			_, err := e.run(p, Config{N: n, Sink: s.sink})
			var wle *WidthLimitError
			if !errors.As(err, &wle) {
				t.Fatalf("%s with %s at width %d: got %v, want *WidthLimitError", e.name, s.name, n, err)
			}
			if wle.N != n || wle.Cap != ObsWidthCap {
				t.Errorf("%s with %s: error fields %+v", e.name, s.name, wle)
			}
			if _, err := e.run(p, Config{N: ObsWidthCap, InitialActive: 4, Sink: s.sink}); err != nil {
				t.Errorf("%s with %s at the cap: unexpected error %v", e.name, s.name, err)
			}
		}
		trace := &obs.TextSink{Trace: io.Discard}
		if _, err := e.run(p, Config{N: n, InitialActive: 4, Sink: trace}); err != nil {
			t.Errorf("%s with a text trace above the cap: unexpected error %v", e.name, err)
		}
	}
}

// testProgram returns the tiny hand-built one-state program shared
// with vm_test.go — enough to exercise Run's width-dependent paths.
func testProgram(t *testing.T) *Program {
	t.Helper()
	return tinyProgram()
}
