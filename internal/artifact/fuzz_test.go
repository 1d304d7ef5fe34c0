package artifact

import (
	"errors"
	"testing"

	"msc/internal/cfg"
)

// FuzzArtifactDecode feeds the codec arbitrary bytes, as a cache object
// file can hold. Each input is sealed with a fresh whole-file digest
// and decoded, so mutations reach the header and section parsers rather
// than stopping at the digest check; it also goes straight to the
// section decoders, past the per-section CRC check. No input may panic,
// and every error must be a *CorruptError or ErrVersion, the two
// outcomes the cache acts on.
func FuzzArtifactDecode(f *testing.F) {
	var g *cfg.Graph // the automaton decoder's compiled graph
	for _, src := range []string{
		"poly int x;\nvoid main() { x = iproc % 3; while (x) { x = x - 1; } return; }",
		"poly int a[4];\nmono int m;\nvoid main() { a[iproc % 4] = iproc; m = a[1]; return; }",
	} {
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
