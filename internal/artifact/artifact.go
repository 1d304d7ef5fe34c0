// Package artifact is the versioned, self-describing binary codec for
// compiled programs: everything a cache hit needs to serve a compile
// without rerunning the pipeline — the MIMD state graph, the meta-state
// automaton, the SIMD program (CSI schedules, hash dispatch tables),
// and the original compile's stats/diagnostics — in one deterministic
// byte stream with per-section checksums and a whole-file digest.
//
// Layout (all integers are varints unless noted; see docs/CACHE.md):
//
//	magic    "MSCART\x00"            fixed 7 bytes
//	version  uvarint                 codec Version; readers reject others
//	srcHash  32 bytes                sha256 of the MIMDC source
//	confFP   32 bytes                config fingerprint (root package)
//	nsec     uvarint
//	sections nsec × {id uvarint, len uvarint, crc32c 4 bytes LE, payload}
//	digest   32 bytes                sha256 of everything above
//
// Decoding verifies the digest first, then each section's CRC, then
// parses with bounds checks; any mismatch returns a *CorruptError so
// the cache can quarantine the entry. A version mismatch is NOT
// corruption — it returns ErrVersion and the cache treats the entry as
// a stale miss to overwrite.
//
// Determinism is the contract the cache's correctness rests on: two
// equal inputs encode to byte-identical streams (maps are serialized in
// sorted key order), and Encode(Decode(b)) == b for any valid b. The
// deterministic sections (graph, automaton, program) also define
// Fingerprint, the identity the recovery matrix asserts across cold,
// warm, and crash-recovered caches; the stats section carries wall
// times and is deliberately excluded from it.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
	metastate "msc/internal/msc"
	"msc/internal/simd"
)

// Version is the codec version. Bump it on ANY change to the encoding
// below — old entries then decode as ErrVersion and are recompiled,
// never misread. The versioning policy is documented in docs/CACHE.md.
const Version = 1

// magic identifies an artifact file. The trailing NUL guards against
// text files that happen to start with the letters.
const magic = "MSCART\x00"

// Section IDs. Unknown IDs are corruption at a matching version.
const (
	secGraph   = 1
	secAuto    = 2
	secProgram = 3
	secStats   = 4
)

// Artifact is the decoded form: the deserialized pipeline outputs plus
// the opaque stats payload (the root package's CompileStats +
// diagnostics JSON; this package does not depend on the root package,
// so the blob stays opaque here).
type Artifact struct {
	Graph     *cfg.Graph
	Automaton *metastate.Automaton
	Program   *simd.Program
	StatsJSON []byte
}

// Key identifies what an artifact was compiled from: the content
// address the cache stores it under.
type Key struct {
	SourceHash [32]byte
	ConfigFP   [32]byte
}

// CorruptError reports a structurally invalid or checksum-failing
// artifact stream. The cache quarantines the entry on sight.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string {
	return "artifact: corrupt stream: " + e.Reason
}

// ErrVersion reports a well-formed artifact written by a different
// codec version: stale, not corrupt. The cache treats it as a miss.
var ErrVersion = errors.New("artifact: codec version mismatch (stale entry)")

func corrupt(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the artifact under its key. The output is
// deterministic: equal inputs produce identical bytes.
func Encode(a *Artifact, key Key) ([]byte, error) {
	if a.Graph == nil || a.Automaton == nil || a.Program == nil {
		return nil, errors.New("artifact: Encode requires graph, automaton, and program")
	}
	out := make([]byte, 0, 4096)
	out = append(out, magic...)
	out = binary.AppendUvarint(out, Version)
	out = append(out, key.SourceHash[:]...)
	out = append(out, key.ConfigFP[:]...)

	sections := []struct {
		id      uint64
		payload []byte
	}{
		{secGraph, encodeGraph(a.Graph)},
		{secAuto, encodeAutomaton(a.Automaton, a.Graph)},
		{secProgram, encodeProgram(a.Program)},
		{secStats, a.StatsJSON},
	}
	out = binary.AppendUvarint(out, uint64(len(sections)))
	for _, s := range sections {
		out = binary.AppendUvarint(out, s.id)
		out = binary.AppendUvarint(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
		out = append(out, s.payload...)
	}
	digest := sha256.Sum256(out)
	out = append(out, digest[:]...)
	return out, nil
}

// Fingerprint returns the hex digest of the deterministic sections
// (graph, automaton, program) — the compile-result identity that must
// agree byte for byte across cold, warm, and crash-recovered caches.
// Stats are excluded: wall times differ between identical compiles.
func Fingerprint(a *Artifact) string {
	h := sha256.New()
	h.Write(encodeGraph(a.Graph))
	h.Write(encodeAutomaton(a.Automaton, a.Graph))
	h.Write(encodeProgram(a.Program))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Decode verifies and deserializes an artifact stream. It returns
// ErrVersion for a different codec version and *CorruptError for any
// integrity or structure failure.
func Decode(data []byte) (*Artifact, Key, error) {
	var key Key
	// Whole-file digest first: everything after this point may assume
	// the bytes are exactly what Encode produced (bounds checks stay,
	// truth does not depend on them).
	if len(data) < len(magic)+32 {
		return nil, key, corrupt("short stream: %d bytes", len(data))
	}
	body, tail := data[:len(data)-32], data[len(data)-32:]
	digest := sha256.Sum256(body)
	if string(digest[:]) != string(tail) {
		return nil, key, corrupt("whole-file digest mismatch")
	}
	r := &reader{data: body}
	if string(r.bytes(len(magic))) != magic {
		return nil, key, corrupt("bad magic")
	}
	if v := r.uvarint(); v != Version {
		if r.err != nil {
			return nil, key, corrupt("truncated header")
		}
		return nil, key, fmt.Errorf("%w: file version %d, codec version %d", ErrVersion, v, Version)
	}
	copy(key.SourceHash[:], r.bytes(32))
	copy(key.ConfigFP[:], r.bytes(32))

	a := &Artifact{}
	nsec := r.uvarint()
	if r.err != nil || nsec > 16 {
		return nil, key, corrupt("bad section count")
	}
	for i := uint64(0); i < nsec; i++ {
		id := r.uvarint()
		n := r.uvarint()
		crcWant := binary.LittleEndian.Uint32(r.bytes(4))
		// n is untrusted: compare it with what is left before it
		// becomes an int, which a length past 2^63 would turn negative.
		if r.err != nil || n > uint64(r.rem()) {
			return nil, key, corrupt("truncated section %d", id)
		}
		payload := r.bytes(int(n))
		if crc32.Checksum(payload, castagnoli) != crcWant {
			return nil, key, corrupt("section %d checksum mismatch", id)
		}
		var err error
		switch id {
		case secGraph:
			a.Graph, err = decodeGraph(payload)
		case secAuto:
			if a.Graph == nil {
				return nil, key, corrupt("automaton section before graph section")
			}
			a.Automaton, err = decodeAutomaton(payload, a.Graph)
		case secProgram:
			a.Program, err = decodeProgram(payload)
		case secStats:
			a.StatsJSON = append([]byte(nil), payload...)
		default:
			return nil, key, corrupt("unknown section id %d", id)
		}
		if err != nil {
			return nil, key, err
		}
	}
	if r.rem() != 0 {
		return nil, key, corrupt("%d trailing bytes after sections", r.rem())
	}
	if a.Graph == nil || a.Automaton == nil || a.Program == nil {
		return nil, key, corrupt("missing required section")
	}
	return a, key, nil
}

// ---- primitive writers ----------------------------------------------

type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) intv(v int)       { w.varint(int64(v)) }
func (w *writer) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) byteval(b byte)   { w.buf = append(w.buf, b) }
func (w *writer) boolval(b bool)   { w.buf = append(w.buf, boolByte(b)) }
func (w *writer) str(s string)     { w.uvarint(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *writer) pos(p ir.Pos)     { w.intv(p.Line); w.intv(p.Col) }
func (w *writer) ints(xs []int)    { w.uvarint(uint64(len(xs))); forEachInt(xs, w.intv) }
func (w *writer) set(s *bitset.Set) {
	if s == nil {
		w.uvarint(0)
		w.boolval(false)
		return
	}
	words := s.Words()
	w.uvarint(uint64(len(words)))
	w.boolval(true)
	for _, word := range words {
		w.u64(word)
	}
}

// sortedKeys returns the map's keys in sorted order: map iteration
// order must never leak into the encoding.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (w *writer) slotMap(m map[string]int) {
	w.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.str(k)
		w.intv(m[k])
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func forEachInt(xs []int, f func(int)) {
	for _, x := range xs {
		f(x)
	}
}

// ---- primitive readers ----------------------------------------------

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = corrupt("truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) rem() int { return len(r.data) - r.off }

// bytes returns the next n bytes. On failure it returns 8 zero bytes,
// enough for the fixed-width readers, and never allocates n: n may come
// from untrusted input.
func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.rem() < n {
		r.fail("bytes")
		return make([]byte, 8)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) intv() int   { return int(r.varint()) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }
func (r *reader) byteval() byte {
	b := r.bytes(1)
	return b[0]
}
func (r *reader) boolval() bool { return r.byteval() != 0 }

func (r *reader) str() string {
	n := r.uvarint()
	if n > uint64(r.rem()) {
		r.fail("string")
		return ""
	}
	return string(r.bytes(int(n)))
}

func (r *reader) pos() ir.Pos { return ir.Pos{Line: r.intv(), Col: r.intv()} }

func (r *reader) ints() []int {
	n := r.uvarint()
	if n > uint64(r.rem()) {
		r.fail("int slice")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.intv()
	}
	return out
}

func (r *reader) set() *bitset.Set {
	n := r.uvarint()
	present := r.boolval()
	if n > uint64(r.rem()/8) {
		r.fail("bitset")
		return nil
	}
	if !present {
		return nil
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = r.u64()
	}
	return bitset.FromWords(words)
}

func (r *reader) slotMap() map[string]int {
	n := r.uvarint()
	if n > uint64(r.rem()) {
		r.fail("slot map")
		return nil
	}
	m := make(map[string]int, n)
	for i := uint64(0); i < n; i++ {
		k := r.str()
		m[k] = r.intv()
	}
	return m
}
