package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"msc/internal/artifact"
	"msc/internal/cfg"
	"msc/internal/codegen"
	"msc/internal/faultinject"
	"msc/internal/ir"
	metastate "msc/internal/msc"
	"msc/internal/mscerr"
	"msc/internal/progen"
	"msc/internal/simd"
)

func testArtifact(t *testing.T, seed int64) (*artifact.Artifact, artifact.Key) {
	t.Helper()
	src := progen.Source(progen.Params{Seed: seed})
	g := cfg.MustBuild(src)
	a, err := metastate.Convert(g, metastate.DefaultOptions(true))
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	p, err := codegen.Compile(a, codegen.Options{Hash: true})
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	var key artifact.Key
	key.SourceHash[0] = byte(seed)
	key.ConfigFP[0] = byte(seed >> 8)
	return &artifact.Artifact{Graph: g, Automaton: a, Program: p, StatsJSON: []byte("{}")}, key
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	a, key := testArtifact(t, 1)
	if got, err := s.Get(key); got != nil || err != nil {
		t.Fatalf("cold Get = %v, %v; want miss", got, err)
	}
	if err := s.Put(key, a); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := s.Get(key)
	if err != nil || got == nil {
		t.Fatalf("warm Get = %v, %v; want hit", got, err)
	}
	if artifact.Fingerprint(got) != artifact.Fingerprint(a) {
		t.Fatal("hit returned a different compile")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScanOnOpenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a, key := testArtifact(t, 2)
	if err := s.Put(key, a); err != nil {
		t.Fatal(err)
	}
	gen1 := s.Generation()

	// A second handle on the same directory must see the entry purely
	// by scanning — there is no sidecar index file to go stale.
	s2 := mustOpen(t, dir)
	if got, err := s2.Get(key); err != nil || got == nil {
		t.Fatalf("reopened Get = %v, %v; want hit", got, err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	if gen1 == 0 {
		t.Fatal("generation not stamped")
	}
}

// TestFaultMatrix drives every filesystem fault through the store and
// asserts the robustness contract: compiles-by-way-of-cache never see
// wrong bytes, corrupt entries are quarantined and never re-served, and
// the store converges back to serving byte-identical artifacts.
func TestFaultMatrix(t *testing.T) {
	a, key := testArtifact(t, 3)
	wantFP := artifact.Fingerprint(a)

	converge := func(t *testing.T, s *Store) {
		// After any fault: a fresh Put must converge to a verified hit
		// with the original fingerprint.
		if err := s.Put(key, a); err != nil {
			t.Fatalf("recovery put: %v", err)
		}
		got, err := s.Get(key)
		if err != nil || got == nil {
			t.Fatalf("recovery Get = %v, %v; want hit", got, err)
		}
		if artifact.Fingerprint(got) != wantFP {
			t.Fatal("recovered artifact fingerprint differs")
		}
	}

	t.Run("torn-write-at-byte-k", func(t *testing.T) {
		s := mustOpen(t, t.TempDir())
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.TornWrite, Byte: 64, Times: 1})
		err := s.Put(key, a)
		undo()
		if err != nil {
			t.Fatalf("torn put should publish (the tear is silent): %v", err)
		}
		// The torn entry is detected on read, quarantined, and reported.
		got, err := s.Get(key)
		var ce *mscerr.CacheError
		if got != nil || !errors.As(err, &ce) || ce.Op != "quarantine" {
			t.Fatalf("torn Get = %v, %v; want quarantine CacheError", got, err)
		}
		// Never re-served: now a plain miss, and the bytes moved aside.
		if got, err := s.Get(key); got != nil || err != nil {
			t.Fatalf("post-quarantine Get = %v, %v; want miss", got, err)
		}
		if n := dirCount(t, filepath.Join(s.Dir(), quarantineDir)); n != 1 {
			t.Fatalf("quarantine holds %d files, want 1", n)
		}
		if s.Stats().Quarantined != 1 {
			t.Fatalf("stats = %+v", s.Stats())
		}
		converge(t, s)
	})

	t.Run("enospc-at-write-n", func(t *testing.T) {
		s := mustOpen(t, t.TempDir())
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.WriteENOSPC, Nth: 1, Times: 1})
		err := s.Put(key, a)
		undo()
		var ce *mscerr.CacheError
		if !errors.As(err, &ce) || !errors.Is(err, faultinject.ErrNoSpace) {
			t.Fatalf("enospc put err = %v", err)
		}
		if got, err := s.Get(key); got != nil || err != nil {
			t.Fatalf("Get after failed put = %v, %v; want miss", got, err)
		}
		if n := dirCount(t, filepath.Join(s.Dir(), tmpDir)); n != 0 {
			t.Fatalf("tmp holds %d files after ENOSPC, want 0", n)
		}
		converge(t, s)
	})

	t.Run("bit-flip-on-read", func(t *testing.T) {
		s := mustOpen(t, t.TempDir())
		if err := s.Put(key, a); err != nil {
			t.Fatal(err)
		}
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.BitFlipRead, Byte: 777, Times: 1})
		got, err := s.Get(key)
		undo()
		var ce *mscerr.CacheError
		if got != nil || !errors.As(err, &ce) {
			t.Fatalf("bit-flip Get = %v, %v; want CacheError", got, err)
		}
		// Conservatively quarantined even though the flip happened on
		// the read path: the store cannot tell media rot from RAM rot,
		// so the entry is retired either way.
		if got, err := s.Get(key); got != nil || err != nil {
			t.Fatalf("post-flip Get = %v, %v; want miss", got, err)
		}
		converge(t, s)
	})

	t.Run("rename-failure", func(t *testing.T) {
		s := mustOpen(t, t.TempDir())
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.RenameFail, Times: 1})
		err := s.Put(key, a)
		undo()
		var ce *mscerr.CacheError
		if !errors.As(err, &ce) || ce.Op != "rename" {
			t.Fatalf("rename-fail put err = %v", err)
		}
		if n := dirCount(t, filepath.Join(s.Dir(), tmpDir)); n != 0 {
			t.Fatalf("tmp holds %d files after failed rename, want 0", n)
		}
		if got, err := s.Get(key); got != nil || err != nil {
			t.Fatalf("Get = %v, %v; want miss", got, err)
		}
		converge(t, s)
	})

	t.Run("crash-between-temp-and-rename", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.CrashBeforeRename, Times: 1})
		err := s.Put(key, a)
		undo()
		if !errors.Is(err, faultinject.ErrCrash) {
			t.Fatalf("crash put err = %v", err)
		}
		// The crash leaves the orphan temp exactly as a real crash would.
		if n := dirCount(t, filepath.Join(dir, tmpDir)); n != 1 {
			t.Fatalf("tmp holds %d files after crash, want the orphan", n)
		}
		if got, err := s.Get(key); got != nil || err != nil {
			t.Fatalf("Get after crash = %v, %v; want miss", got, err)
		}
		// Recovery: reopening the store sweeps the orphan and the entry
		// is simply absent — then a fresh Put converges.
		s2 := mustOpen(t, dir)
		if n := dirCount(t, filepath.Join(dir, tmpDir)); n != 0 {
			t.Fatalf("tmp holds %d files after reopen, want 0", n)
		}
		if got, err := s2.Get(key); got != nil || err != nil {
			t.Fatalf("Get after reopen = %v, %v; want miss", got, err)
		}
		converge(t, s2)
	})
}

// TestKeySeparation: differing source or config addresses differing
// entries; the codec version participates in the address.
func TestKeySeparation(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	a, key := testArtifact(t, 4)
	if err := s.Put(key, a); err != nil {
		t.Fatal(err)
	}
	other := key
	other.ConfigFP[5] ^= 1
	if got, err := s.Get(other); got != nil || err != nil {
		t.Fatalf("config-fingerprint miss = %v, %v", got, err)
	}
	other = key
	other.SourceHash[5] ^= 1
	if got, err := s.Get(other); got != nil || err != nil {
		t.Fatalf("source-hash miss = %v, %v", got, err)
	}
	if Name(key) == Name(other) {
		t.Fatal("distinct keys share a content address")
	}
}

// TestSubstitutedObjectQuarantined plants an internally-valid artifact
// under the wrong name; Get must refuse to serve it (key mismatch).
func TestSubstitutedObjectQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a, key := testArtifact(t, 5)
	if err := s.Put(key, a); err != nil {
		t.Fatal(err)
	}
	// Rewrite the object with an encode under a different key: valid
	// stream, wrong identity.
	wrong := key
	wrong.SourceHash[0] ^= 0xFF
	data, err := artifact.Encode(a, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, objectsDir, Name(key)+objectExt), data, 0o666); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	var ce *mscerr.CacheError
	if got != nil || !errors.As(err, &ce) || ce.Op != "quarantine" {
		t.Fatalf("substituted Get = %v, %v; want quarantine", got, err)
	}
}

// TestHugeSectionObjectQuarantined replaces an object with a
// digest-valid stream whose one section header declares 2^63 or 2^40
// payload bytes. Decoding must neither panic nor allocate the declared
// length, which no recover could catch; Get must quarantine the object
// like any corrupt one, for that truncated section: a stream the codec
// rejects earlier (a changed magic or header) fails the test rather
// than passing without reaching the section length.
func TestHugeSectionObjectQuarantined(t *testing.T) {
	for _, n := range []uint64{1 << 63, 1 << 40} {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		a, key := testArtifact(t, 6)
		if err := s.Put(key, a); err != nil {
			t.Fatal(err)
		}
		b := binary.AppendUvarint([]byte("MSCART\x00"), artifact.Version)
		b = append(b, key.SourceHash[:]...)
		b = append(b, key.ConfigFP[:]...)
		b = binary.AppendUvarint(b, 1) // one section: graph, n bytes, none present
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, n)
		b = binary.LittleEndian.AppendUint32(b, 0)
		digest := sha256.Sum256(b)
		if err := os.WriteFile(filepath.Join(dir, objectsDir, Name(key)+objectExt), append(b, digest[:]...), 0o666); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(key)
		var ce *mscerr.CacheError
		if got != nil || !errors.As(err, &ce) || ce.Op != "quarantine" {
			t.Fatalf("length %d: Get = %v, %v; want quarantine", n, got, err)
		}
		var corrupt *artifact.CorruptError
		if !errors.As(err, &corrupt) || corrupt.Reason != "truncated section 1" {
			t.Fatalf("length %d: quarantined for %v, want truncated section 1", n, ce.Err)
		}
		if q := dirCount(t, filepath.Join(dir, quarantineDir)); q != 1 {
			t.Fatalf("length %d: %d quarantined files, want 1", n, q)
		}
	}
}

// TestUnbalancedObjectQuarantined stores a compiled artifact whose loop
// body (the state executing x = x - 1) pushes one value more than it
// pops, as a forged cache object could: Get must quarantine it as
// corrupt rather than hand the VM a program that grows every PE's
// evaluation-stack rows on each iteration.
func TestUnbalancedObjectQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g := cfg.MustBuild("poly int x;\nvoid main() { x = iproc % 4; do { x = x - 1; } while (x); return; }")
	a, err := metastate.Convert(g, metastate.DefaultOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Compile(a, codegen.Options{Hash: true, CSI: true})
	if err != nil {
		t.Fatal(err)
	}
	forged := false
	for _, m := range p.Meta {
		j := slices.IndexFunc(m.Slots, func(sl simd.Slot) bool { return sl.Kind == simd.SlotExec && sl.Instr.Op == ir.Sub })
		if j >= 0 && !forged {
			push := simd.Slot{Kind: simd.SlotExec, Guard: m.Slots[j].Guard, Block: m.Slots[j].Block, Instr: ir.Instr{Op: ir.PushC, Imm: 1}}
			m.Slots = slices.Insert(m.Slots, j, push)
			forged = true
		}
	}
	if !forged {
		t.Fatal("no loop body to forge")
	}
	var key artifact.Key
	key.SourceHash[0] = 9
	if err := s.Put(key, &artifact.Artifact{Graph: g, Automaton: a, Program: p, StatsJSON: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	var ce *mscerr.CacheError
	if got != nil || !errors.As(err, &ce) || ce.Op != "quarantine" {
		t.Fatalf("Get = %v, %v; want quarantine", got, err)
	}
	var corrupt *artifact.CorruptError
	if !errors.As(err, &corrupt) || !strings.Contains(corrupt.Reason, "is unbalanced") {
		t.Fatalf("quarantined for %v, want an unbalanced state", ce.Err)
	}
	if q := dirCount(t, filepath.Join(dir, quarantineDir)); q != 1 {
		t.Fatalf("%d quarantined files, want 1", q)
	}
}

func dirCount(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir %s: %v", dir, err)
	}
	return len(ents)
}
