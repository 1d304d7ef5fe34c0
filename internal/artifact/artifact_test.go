package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"msc/internal/cfg"
	"msc/internal/codegen"
	"msc/internal/ir"
	metastate "msc/internal/msc"
	"msc/internal/mscerr"
	"msc/internal/progen"
	"msc/internal/simd"
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
func buildArtifact(t testing.TB, src string, compress, hash, csiOn bool) *Artifact {
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

// hugeSectionStream is a digest-valid stream whose one section header
// declares n payload bytes and carries none.
func hugeSectionStream(n uint64) []byte {
	b := binary.AppendUvarint([]byte(magic), Version)
	b = append(b, make([]byte, 64)...) // source hash, config fingerprint
	b = binary.AppendUvarint(b, 1)     // one section
	b = binary.AppendUvarint(b, secGraph)
	b = binary.AppendUvarint(b, n)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return appendDigest(b)
}

// TestHugeSectionLengthIsCorrupt: a section length past the end of the
// stream is corruption. It must not panic (2^63 is negative as an int)
// or exhaust memory (a failed read must not allocate 2^40 bytes).
func TestHugeSectionLengthIsCorrupt(t *testing.T) {
	for _, n := range []uint64{1 << 63, 1 << 40} {
		stream := hugeSectionStream(n)
		var ce *CorruptError
		if _, _, err := Decode(stream); !errors.As(err, &ce) || ce.Reason != fmt.Sprintf("truncated section %d", secGraph) {
			t.Errorf("length %d (%d-byte stream): got %v, want truncated section %d", n, len(stream), err, secGraph)
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

// loopSource runs its loop body, x = x - 1, a data-dependent number of
// times.
const loopSource = "poly int x;\nvoid main() { x = iproc % 4; do { x = x - 1; } while (x); return; }"

// insertAt returns a forgery that finds the first slot of a program
// satisfying at and inserts slots before it (offset 0) or after it
// (offset 1), under its guard and block. It reports whether it found
// one.
func insertAt(at func(simd.Slot) bool, offset int, slots ...simd.Slot) func(*simd.Program) bool {
	return func(p *simd.Program) bool {
		for _, m := range p.Meta {
			if k := slices.IndexFunc(m.Slots, at); k >= 0 {
				for i := range slots {
					slots[i].Guard, slots[i].Block = m.Slots[k].Guard, m.Slots[k].Block
				}
				m.Slots = slices.Insert(m.Slots, k+offset, slots...)
				return true
			}
		}
		return false
	}
}

// TestUnbalancedProgramIsCorrupt re-encodes loopSource's compiled
// artifact forged in ways cfg.Verify would reject, and a decoded
// program never passes cfg.Verify: a loop body that pushes one value
// more than it pops or has a second terminator, stack code that pops
// below a state's depth only when Pop -1 pops nothing or a JumpF's
// pop is counted where it happens, and MIMD state numbers or sizes
// out of range. Decoding must reject each as corrupt, and Run must
// refuse each whose rule the VM relies on (all but the terminator
// count) with a *simd.ProgramError instead of underflowing or
// panicking.
func TestUnbalancedProgramIsCorrupt(t *testing.T) {
	isSub := func(sl simd.Slot) bool { return sl.Kind == simd.SlotExec && sl.Instr.Op == ir.Sub }
	isStore := func(sl simd.Slot) bool { return sl.Kind == simd.SlotExec && sl.Instr.Op == ir.StLocal }
	isJumpF := func(sl simd.Slot) bool { return sl.Kind == simd.SlotJumpF }
	isSetPC := func(sl simd.Slot) bool { return sl.Kind == simd.SlotSetPC }
	isBodyTerm := func(sl simd.Slot) bool { return isSetPC(sl) && sl.Block == 2 }
	exec := func(op ir.Op, imm int64) simd.Slot {
		return simd.Slot{Kind: simd.SlotExec, Instr: ir.Instr{Op: op, Imm: imm}}
	}
	both := func(f, g func(*simd.Program) bool) func(*simd.Program) bool {
		return func(p *simd.Program) bool { return f(p) && g(p) }
	}
	for _, tc := range []struct {
		name   string
		forge  func(*simd.Program) bool
		reason string
		vm     bool // a rule the VM relies on, so Run refuses it too
	}{
		{"push in loop body", insertAt(isSub, 0, exec(ir.PushC, 1)),
			"ms1: state 2 is unbalanced: ends the body at depth 1", true},
		{"second terminator", insertAt(isBodyTerm, 0, simd.Slot{Kind: simd.SlotSetPC}),
			"meta 1 state 2 has a second terminator slot", false},
		{"no terminator", func(p *simd.Program) bool {
			m := p.Meta[1]
			k := slices.IndexFunc(m.Slots, isBodyTerm)
			if k < 0 {
				return false
			}
			m.Slots = slices.Delete(m.Slots, k, k+1)
			return true
		}, "meta 1 state 2 has no terminator slot", false},
		// Counted as a push, Pop -1 balanced an extra store.
		{"negative pop", insertAt(isStore, 0, exec(ir.Pop, -1), exec(ir.StLocal, 0)),
			"ms0 slot 5: state 0 is unbalanced: StLocal(0:x) at depth 0", true},
		// The exec slots net the one value a JumpF wants, but the JumpF
		// pops it before the Add.
		{"pop past a JumpF", both(insertAt(isJumpF, 0, exec(ir.PushC, 7)), insertAt(isJumpF, 1, exec(ir.Add, 0))),
			"ms2 slot 4: state 3 is unbalanced: Add at depth 1", true},
		{"SetPC out of range", func(p *simd.Program) bool { return setTo(p, isSetPC, 99) },
			"ms0 slot 4: SetPC target 99 outside [0,5)", true},
		{"negative Words", func(p *simd.Program) bool { p.Words = -1; return true },
			"negative Words -1", true},
		{"negative NStates", func(p *simd.Program) bool { p.NStates = -1; return true },
			"negative NStates -1", true},
	} {
		a := buildArtifact(t, loopSource, true, true, true)
		if _, _, err := Decode(mustEncode(t, a)); err != nil {
			t.Fatalf("%s: the unmodified program does not decode: %v", tc.name, err)
		}
		if !tc.forge(a.Program) {
			t.Fatalf("%s: nothing to forge", tc.name)
		}
		_, _, err := Decode(mustEncode(t, a))
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, tc.reason) {
			t.Errorf("%s: Decode = %v, want a corrupt stream with %q", tc.name, err, tc.reason)
		}
		if !tc.vm {
			continue
		}
		restore := simd.SetChunkPEsForTest(64)
		_, err = simd.Run(a.Program, simd.Config{N: 130, Workers: 2})
		restore()
		var pe *simd.ProgramError
		if !errors.As(err, &pe) || !strings.Contains(pe.Error(), tc.reason) {
			t.Errorf("%s: Run = %v, want a *simd.ProgramError with %q", tc.name, err, tc.reason)
		}
	}
}

// setTo sets the To of the first slot satisfying at and reports
// whether there was one.
func setTo(p *simd.Program, at func(simd.Slot) bool, to int) bool {
	for _, m := range p.Meta {
		if k := slices.IndexFunc(m.Slots, at); k >= 0 {
			m.Slots[k].To = to
			return true
		}
	}
	return false
}

func mustEncode(t *testing.T, a *Artifact) []byte {
	t.Helper()
	enc, err := Encode(a, testKey())
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
