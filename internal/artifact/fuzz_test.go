package artifact

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"msc/internal/cfg"
	"msc/internal/simd"
)

// fuzzSources are the programs whose compiled artifacts seed the fuzz
// targets, each converted with and without compression.
var fuzzSources = []string{
	"poly int x;\nvoid main() { x = iproc % 3; while (x) { x = x - 1; } return; }",
	"poly int a[4];\nmono int m;\nvoid main() { a[iproc % 4] = iproc; m = a[1]; return; }",
}

// FuzzArtifactDecode feeds the codec arbitrary bytes, as a cache object
// file can hold. Each input is sealed with a fresh whole-file digest
// and decoded, so mutations reach the header and section parsers rather
// than stopping at the digest check; it also goes straight to the
// section decoders, past the per-section CRC check. No input may panic,
// and every error must be a *CorruptError or ErrVersion, the two
// outcomes the cache acts on.
func FuzzArtifactDecode(f *testing.F) {
	var g *cfg.Graph // the automaton decoder's compiled graph
	for _, src := range fuzzSources {
		for _, compress := range []bool{false, true} {
			a := buildArtifact(f, src, compress, true, true)
			enc, err := Encode(a, testKey())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc[:len(enc)-32])
			f.Add(encodeGraph(a.Graph))
			f.Add(encodeAutomaton(a.Automaton, a.Graph))
			f.Add(encodeProgram(a.Program))
			g = a.Graph
		}
	}
	for _, n := range []uint64{1 << 63, 1 << 40} {
		s := hugeSectionStream(n)
		f.Add(s[:len(s)-32])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		check := func(what string, err error) {
			var ce *CorruptError
			if err != nil && !errors.As(err, &ce) && !errors.Is(err, ErrVersion) {
				t.Fatalf("%s: unclassified error %T: %v", what, err, err)
			}
		}
		_, _, err := Decode(appendDigest(append([]byte(nil), body...)))
		check("Decode", err)
		_, err = decodeGraph(body)
		check("decodeGraph", err)
		_, err = decodeAutomaton(body, g)
		check("decodeAutomaton", err)
		_, err = decodeProgram(body)
		check("decodeProgram", err)
	})
}

// Resource bounds for FuzzRunDecoded. A program's Words and NStates
// size the engines' storage (width × Words memory words, one occupancy
// mask per MIMD state), and the codec bounds neither, so without them
// a mutated varint could ask the fuzzing machine for gigabytes;
// runFuzzMaxMeta bounds the meta-state executions of one run.
const (
	maxRunFuzzWords  = 256
	maxRunFuzzStates = 256
	runFuzzMaxMeta   = 64
)

// FuzzRunDecoded runs every program the decoder admits on both SIMD
// engines: the vectorized VM, which trusts the stack layout
// simd.Validate proves and so checks no depth at run time, at one and
// two workers over 64-PE chunks, and the reference VM, which checks
// every pop. No input may panic, and both engines must give the same
// Result or the same error text.
func FuzzRunDecoded(f *testing.F) {
	for _, src := range fuzzSources {
		for _, compress := range []bool{false, true} {
			f.Add(encodeProgram(buildArtifact(f, src, compress, true, true).Program))
		}
	}
	defer simd.SetChunkPEsForTest(64)()
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := decodeProgram(body)
		if err != nil || p.Words > maxRunFuzzWords || p.NStates > maxRunFuzzStates {
			return
		}
		conf := simd.Config{N: 130, MaxMeta: runFuzzMaxMeta}
		want, wantErr := simd.ReferenceRun(p, conf)
		for _, w := range []int{1, 2} {
			conf.Workers = w
			got, err := simd.Run(p, conf)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("workers=%d: error %v, reference %v", w, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: Result differs from the reference", w)
			}
		}
	})
}
