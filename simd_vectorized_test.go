package msc_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"msc"
	"msc/internal/harness"
	"msc/internal/obs"
	"msc/internal/progen"
	"msc/internal/simd"
)

// This file is the vectorized VM's differential gate: the struct-of-
// arrays, mask-driven, chunk-striped engine must produce a byte-
// identical Result to the retired per-PE reference implementation
// (simd.ReferenceRun) on the whole committed corpus and a fixed fleet
// of generated programs, at every width and worker count. Any
// divergence — a memory word, a cycle count, a histogram bucket, an
// error string — is a vectorization bug by definition.

// vecWorkers is the worker-count sweep: sequential, a fixed parallel
// fan-out, and the GOMAXPROCS default. On a single-core runner 0
// resolves to 1; the fixed 4 still drives the chunk pool, claim
// cursor, and per-chunk buffer replay.
func vecWorkers() []int { return []int{1, 4, 0} }

// vecTraceMax is the widest run vecDiff also traces: up to it both VMs
// stream their events into a JSONL sink, and the streams must match
// byte for byte.
const vecTraceMax = 1024

// vecDiff runs src on the reference VM and on the vectorized VM at
// every worker count, and requires identical Results (every field,
// deeply) or identical error text, and identical event streams up to
// vecTraceMax PEs.
func vecDiff(t *testing.T, name, src string, n, initialActive int) {
	t.Helper()
	c, err := msc.Compile(src, msc.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	run := func(vm func(*simd.Program, simd.Config) (*simd.Result, error), conf simd.Config) (*simd.Result, []byte, error) {
		var events bytes.Buffer
		if n <= vecTraceMax {
			conf.Sink = &obs.JSONLSink{W: &events}
		}
		res, err := vm(c.Program, conf)
		return res, events.Bytes(), err
	}
	conf := simd.Config{N: n, InitialActive: initialActive}
	want, wantEvents, wantErr := run(simd.ReferenceRun, conf)
	for _, w := range vecWorkers() {
		wconf := conf
		wconf.Workers = w
		got, gotEvents, gotErr := run(simd.Run, wconf)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%s@%d workers=%d: reference err=%v, vectorized err=%v",
				name, n, w, wantErr, gotErr)
		}
		if !bytes.Equal(wantEvents, gotEvents) {
			t.Fatalf("%s@%d workers=%d: event stream diverged: %s",
				name, n, w, diffLines(wantEvents, gotEvents))
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s@%d workers=%d: error text diverged:\nreference:  %s\nvectorized: %s",
					name, n, w, wantErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s@%d workers=%d: Result diverged:\n%s",
				name, n, w, diffResults(want, got))
		}
	}
}

// diffLines names the first diverging line of two event streams.
func diffLines(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: reference %s vs vectorized %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("reference has %d lines, vectorized %d", len(al), len(bl))
}

// diffResults names the first diverging Result field so a failure
// reads as "Time: 120 vs 124", not two megabyte dumps.
func diffResults(a, b *simd.Result) string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	typ := av.Type()
	for i := 0; i < typ.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return fmt.Sprintf("field %s: reference %v vs vectorized %v",
				typ.Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	return "results differ but no field does (impossible)"
}

// smallChunks shrinks the chunk granularity so modest test widths
// exercise multi-chunk striping (the production 4096 would leave
// everything below 8192 PEs single-chunked and secretly sequential).
func smallChunks(t *testing.T) {
	t.Helper()
	restore := simd.SetChunkPEsForTest(64)
	t.Cleanup(restore)
}

// TestVectorizedCorpus gates the vectorized VM against every committed
// corpus program at widths spanning one mask word, exactly one word,
// and many chunks.
func TestVectorizedCorpus(t *testing.T) {
	smallChunks(t)
	for _, file := range corpusFiles(t) {
		file := file
		t.Run(filepath.ToSlash(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{16, 64, 1024} {
				vecDiff(t, file, string(src), n, 0)
			}
		})
	}
}

// TestVectorizedCorpusWide pushes the N-independent corpus programs to
// width 65536 (full production chunking). Kept under -race by `make
// check`: the chunk pool's claim/commit discipline is exactly what the
// race detector should see at scale.
func TestVectorizedCorpusWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide differential skipped in -short")
	}
	for _, name := range []string{"divergent.mc", "stencil.mc", "farm.mc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("examples", "mc", name))
			if err != nil {
				t.Fatal(err)
			}
			ia := 0
			if name == "farm.mc" {
				ia = 1 // the coordinator spawns its workers
			}
			vecDiff(t, name, string(src), 65536, ia)
		})
	}
}

// TestVectorizedSuite gates the harness workload suite at native
// widths — including the spawn workload from a single active PE, which
// drives the free-PE cursor.
func TestVectorizedSuite(t *testing.T) {
	smallChunks(t)
	for _, wl := range harness.Suite() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			vecDiff(t, wl.Name, wl.Source, wl.Width, wl.InitialActive)
		})
	}
}

// TestVectorizedProgen gates the vectorized VM against 120 generated
// programs with fixed seeds sweeping the generator's shape space, at
// three widths; every tenth seed also runs at width 65536 (skipped in
// -short).
func TestVectorizedProgen(t *testing.T) {
	smallChunks(t)
	const programs = 120
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			src := progen.Source(progen.Params{
				Seed:     seed,
				Barriers: seed%2 == 0,
				Floats:   seed%3 == 0,
				Calls:    seed%5 == 0,
				MaxDepth: 2,
				MaxStmts: 5,
			})
			widths := []int{16, 64, 1024}
			if seed%10 == 0 && !testing.Short() {
				widths = append(widths, 65536)
			}
			for _, n := range widths {
				vecDiff(t, "progen", src, n, 0)
			}
		})
	}
}

// TestVectorizedSpawnHeavy gates the free-PE cursor: spawn-heavy
// generated programs claim and release PEs from a single coordinator,
// so claim order, halt-recycling, and the cursor-lowering commit path
// must all match the reference scan-from-zero implementation.
func TestVectorizedSpawnHeavy(t *testing.T) {
	smallChunks(t)
	for seed := int64(40); seed < 46; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			src := progen.Source(progen.Params{
				Seed:     seed,
				Spawns:   8,
				MaxDepth: 2,
				MaxStmts: 5,
			})
			for _, n := range []int{64, 1024} {
				vecDiff(t, "spawnheavy", src, n, 1)
			}
		})
	}
}

// TestVectorizedMegaWidth runs the N-independent example programs at a
// million PEs — the paper's "massively parallel" regime — and still
// requires byte-identical Results at every worker count. Skipped in
// -short and under the race detector (the reference VM is ~30x slower
// instrumented; TestVectorizedCorpusWide covers the race-enabled
// ground at 65536).
func TestVectorizedMegaWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("mega-width differential skipped in -short")
	}
	if raceEnabled {
		t.Skip("mega-width differential skipped under -race (see TestVectorizedCorpusWide)")
	}
	for _, name := range []string{"divergent.mc", "stencil.mc", "farm.mc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("examples", "mc", name))
			if err != nil {
				t.Fatal(err)
			}
			ia := 0
			if name == "farm.mc" {
				ia = 1
			}
			vecDiff(t, name, string(src), 1<<20, ia)
		})
	}
}

// TestVectorizedWorkersMatchGOMAXPROCS pins the contract that Workers
// has no observable effect beyond wall time: an absurd worker count
// (more workers than chunks) still commits in chunk-ID order.
func TestVectorizedWorkersMatchGOMAXPROCS(t *testing.T) {
	smallChunks(t)
	c, err := msc.Compile(harness.Collatz, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := simd.ReferenceRun(c.Program, simd.Config{N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 7, 16, 64, runtime.GOMAXPROCS(0)} {
		got, err := simd.Run(c.Program, simd.Config{N: 1024, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: %s", w, diffResults(want, got))
		}
	}
}
