package artifact

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"msc/internal/cfg"
	"msc/internal/codegen"
	metastate "msc/internal/msc"
	"msc/internal/mscerr"
	"msc/internal/progen"
)

// maxArtifactStates caps buildArtifact's conversions. Uncompressed
// primes.mc, the largest automaton the tests round-trip, has exactly
// this many meta states. Programs that explode past it are dropped
// here rather than converted up to the pipeline's 65536-state default,
// which cost most of the tests' run time and round-tripped nothing.
const maxArtifactStates = 1 << 14

// buildArtifact runs the internal pipeline (graph → automaton → SIMD
// program) on source and wraps the results like the cache layer will.
// It returns nil when conversion exceeds maxArtifactStates.
func buildArtifact(t *testing.T, src string, compress, hash, csiOn bool) *Artifact {
	t.Helper()
	g := cfg.MustBuild(src)
	opt := metastate.DefaultOptions(compress)
	opt.MaxStates = maxArtifactStates
	a, err := metastate.Convert(g, opt)
	var be *mscerr.BudgetError
	if errors.As(err, &be) {
		return nil
	}
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	p, err := codegen.Compile(a, codegen.Options{Hash: hash, CSI: csiOn})
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return &Artifact{
		Graph:     g,
		Automaton: a,
		Program:   p,
		StatsJSON: []byte(`{"phase_wall":{"convert":1}}`),
	}
}

func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	paths, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		srcs[filepath.Base(p)] = string(data)
	}
	for _, seed := range []int64{1, 7, 42} {
		srcs[fmt.Sprintf("progen-%d", seed)] = progen.Source(progen.Params{Seed: seed, Barriers: true, Calls: seed%2 == 1})
	}
	return srcs
}

func appendDigest(b []byte) []byte {
	d := sha256.Sum256(b)
	return append(b, d[:]...)
}

func testKey() Key {
	var k Key
	for i := range k.SourceHash {
		k.SourceHash[i] = byte(i)
		k.ConfigFP[i] = byte(255 - i)
	}
	return k
}

// roundTripSkips are the corpus programs whose uncompressed automata
// exceed maxArtifactStates; every other (program, compress) pair must
// round-trip, so the tested set cannot silently shrink.
var roundTripSkips = map[string]bool{
	"progen-1 compress=false":  true,
	"progen-7 compress=false":  true,
	"progen-42 compress=false": true,
}

// TestRoundTrip proves the codec contract over the corpus: decode
// inverts encode structurally, re-encoding the decoded artifact is
// byte-identical (determinism), and the fingerprint survives the trip.
func TestRoundTrip(t *testing.T) {
	for name, src := range corpusSources(t) {
		for _, compress := range []bool{false, true} {
			a := buildArtifact(t, src, compress, true, true)
			pair := fmt.Sprintf("%s compress=%v", name, compress)
			if (a == nil) != roundTripSkips[pair] {
				t.Fatalf("%s: skipped=%v, want %v", pair, a == nil, roundTripSkips[pair])
			}
			if a == nil {
				continue
			}
			enc, err := Encode(a, testKey())
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			dec, key, err := Decode(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if key != testKey() {
				t.Fatalf("%s: key did not round-trip", name)
			}
			enc2, err := Encode(dec, key)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", name, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: encode(decode(x)) differs from x", name)
			}
			if Fingerprint(a) != Fingerprint(dec) {
				t.Fatalf("%s: fingerprint changed across round trip", name)
			}
			if string(dec.StatsJSON) != string(a.StatsJSON) {
				t.Fatalf("%s: stats blob changed", name)
			}
		}
	}
}

// TestDecodedAutomatonDispatches proves a deserialized automaton is
// operational: Find locates every state by set (the index rebuilt by
// Reindex) and Lookup dispatches the start aggregate.
func TestDecodedAutomatonDispatches(t *testing.T) {
	a := buildArtifact(t, progen.Source(progen.Params{Seed: 3}), true, true, false)
	enc, err := Encode(a, testKey())
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Automaton.States {
		got := dec.Automaton.Find(s.Set)
		if got == nil || got.ID != s.ID {
			t.Fatalf("decoded automaton cannot find state %d %s", s.ID, s.Set)
		}
	}
	start := dec.Automaton.States[dec.Automaton.Start]
	ms, err := dec.Automaton.Lookup(start.Set)
	if err != nil || ms == nil || ms.ID != start.ID {
		t.Fatalf("decoded automaton Lookup(start) = %v, %v", ms, err)
	}
}

// TestCorruptionDetected flips every byte of an encoded artifact in
// turn and requires Decode to fail loudly each time — never to return
// a silently different artifact. This is the integrity property the
// cache's quarantine path relies on.
func TestCorruptionDetected(t *testing.T) {
	a := buildArtifact(t, "poly int x;\nvoid main() { x = 1; return; }", false, false, false)
	enc, err := Encode(a, testKey())
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte corruption must be detected: the whole-file
	// digest covers all bytes before it, and the digest bytes themselves
	// are compared against the recomputed hash.
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if _, _, err := Decode(mut); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	// Truncations must be detected too (torn writes).
	for _, n := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if _, _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
		var ce *CorruptError
		_, _, err := Decode(enc[:n])
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: got %v, want *CorruptError", n, err)
		}
	}
}

// TestVersionMismatchIsStaleNotCorrupt rewrites the header version and
// requires ErrVersion (a miss), not a CorruptError (a quarantine):
// upgrading the codec must not quarantine every existing entry.
func TestVersionMismatchIsStaleNotCorrupt(t *testing.T) {
	a := buildArtifact(t, "poly int x;\nvoid main() { x = 2; return; }", false, false, false)
	enc, err := Encode(a, testKey())
	if err != nil {
		t.Fatal(err)
	}
	// The version uvarint sits right after the magic; Version fits one
	// byte, so bumping it keeps the varint single-byte. Recompute the
	// digest so only the version differs.
	mut := append([]byte(nil), enc[:len(enc)-32]...)
	mut[len(magic)] = Version + 1
	mut = appendDigest(mut)
	_, _, err2 := Decode(mut)
	if !errors.Is(err2, ErrVersion) {
		t.Fatalf("version bump: got %v, want ErrVersion", err2)
	}
	var ce *CorruptError
	if errors.As(err2, &ce) {
		t.Fatalf("version bump misclassified as corruption: %v", err2)
	}
}

// TestFingerprintExcludesStats: two compiles of the same program with
// different wall-clock stats must share a fingerprint (cold ≡ warm).
func TestFingerprintExcludesStats(t *testing.T) {
	src := "poly int x;\nvoid main() { x = 3; return; }"
	a := buildArtifact(t, src, true, true, false)
	b := buildArtifact(t, src, true, true, false)
	b.StatsJSON = []byte(`{"phase_wall":{"convert":999}}`)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint depends on the stats section")
	}
	encA, _ := Encode(a, testKey())
	encB, _ := Encode(b, testKey())
	if bytes.Equal(encA, encB) {
		t.Fatal("encodings should differ when stats differ (digest covers stats)")
	}
}
