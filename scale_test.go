package msc_test

import (
	"fmt"
	"runtime"
	"testing"

	"msc"
	"msc/internal/harness"
	"msc/internal/progen"
)

// TestWideMachines runs the workload suite on machines up to 256 PEs:
// correctness must hold at every width and the SIMD cycle count must be
// essentially width-independent for uniform workloads (one instruction
// stream drives any number of PEs).
func TestWideMachines(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 64, 256} {
		c := msc.MustCompile(harness.Reduction, msc.DefaultConfig())
		rc := msc.RunConfig{N: n}
		sd, err := c.RunSIMD(rc)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		ref, err := c.RunMIMD(rc)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		slot, _ := c.Slot("sum")
		want := int64(n) * int64(n+1) / 2
		for pe := 0; pe < n; pe++ {
			if got := int64(sd.Mem[pe][slot]); got != want {
				t.Fatalf("N=%d PE %d: sum = %d, want %d", n, pe, got, want)
			}
			if sd.Mem[pe][slot] != ref.Mem[pe][slot] {
				t.Fatalf("N=%d PE %d: engines disagree", n, pe)
			}
		}
	}
}

// TestSortScalesAndStaysSorted exercises the odd-even sorting network at
// several widths.
func TestSortScalesAndStaysSorted(t *testing.T) {
	c := msc.MustCompile(harness.OddEvenSort, msc.DefaultConfig())
	for _, n := range []int{2, 5, 16, 48} {
		res, err := c.RunSIMD(msc.RunConfig{N: n})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		slot, _ := c.Slot("v")
		for pe := 1; pe < n; pe++ {
			if res.Mem[pe-1][slot] > res.Mem[pe][slot] {
				t.Fatalf("N=%d: unsorted at PE %d", n, pe)
			}
		}
	}
}

// TestLargeRandomProgramsCompressed pushes bigger generated programs
// through the compressed pipeline on a 64-wide machine and checks the
// SIMD result against the MIMD reference.
func TestLargeRandomProgramsCompressed(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep skipped in -short")
	}
	for seed := int64(500); seed < 510; seed++ {
		src := progen.Source(progen.Params{
			Seed: seed, Barriers: true, Floats: true, Calls: true,
			MaxDepth: 4, MaxStmts: 7, Vars: 6, LoopTrip: 4,
		})
		name := fmt.Sprintf("seed%d", seed)
		c, err := msc.Compile(src, msc.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, src)
		}
		rc := msc.RunConfig{N: 64}
		sd, err := c.RunSIMD(rc)
		if err != nil {
			t.Fatalf("%s: simd: %v\n%s", name, err, src)
		}
		ref, err := c.RunMIMD(rc)
		if err != nil {
			t.Fatalf("%s: mimd: %v", name, err)
		}
		for pe := 0; pe < 64; pe++ {
			for slot := range ref.Mem[pe] {
				if ref.Mem[pe][slot] != sd.Mem[pe][slot] {
					t.Fatalf("%s: PE %d slot %d: %d != %d\n%s",
						name, pe, slot, sd.Mem[pe][slot], ref.Mem[pe][slot], src)
				}
			}
		}
	}
}

// TestDeepNesting checks a pathological single program: five levels of
// nested control flow with calls in conditions.
func TestDeepNesting(t *testing.T) {
	src := `
poly int acc;
int bump(int v) { return v + 1; }
void main()
{
    poly int a, b, c, d;
    for (a = 0; a < 3; a = a + 1) {
        if (a % 2 == 0) {
            for (b = 0; b < 2; b = b + 1) {
                while (c < bump(a + b)) {
                    do {
                        acc = acc + 1;
                        d = d + 1;
                    } while (d % 3 != 0);
                    c = c + 1;
                }
                c = 0;
            }
        } else {
            acc = acc + bump(acc) % 5;
        }
    }
    return;
}
`
	c, err := msc.Compile(src, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sd, err := c.RunSIMD(msc.RunConfig{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.RunMIMD(msc.RunConfig{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	slot, _ := c.Slot("acc")
	for pe := 0; pe < 8; pe++ {
		if sd.Mem[pe][slot] != ref.Mem[pe][slot] {
			t.Fatalf("PE %d: %d != %d", pe, sd.Mem[pe][slot], ref.Mem[pe][slot])
		}
	}
}

// TestExpandCallsRandomEquivalence sweeps generated call-heavy programs
// through the §2.2 in-line expansion pipeline and checks results against
// the MIMD reference built from the same expanded graph and against the
// default shared-copy pipeline.
func TestExpandCallsRandomEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep skipped in -short")
	}
	for seed := int64(900); seed < 912; seed++ {
		src := progen.Source(progen.Params{
			Seed: seed, Calls: true, Floats: true, MaxDepth: 2, MaxStmts: 4,
		})
		expanded, err := msc.Compile(src, msc.Config{Compress: true, CSI: true, ExpandCalls: true})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		shared, err := msc.Compile(src, msc.Config{Compress: true, CSI: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rc := msc.RunConfig{N: 6}
		re, err := expanded.RunSIMD(rc)
		if err != nil {
			t.Fatalf("seed %d: expanded simd: %v\n%s", seed, err, src)
		}
		ref, err := expanded.RunMIMD(rc)
		if err != nil {
			t.Fatalf("seed %d: expanded mimd: %v", seed, err)
		}
		rs, err := shared.RunSIMD(rc)
		if err != nil {
			t.Fatalf("seed %d: shared simd: %v", seed, err)
		}
		for pe := 0; pe < 6; pe++ {
			// Expanded SIMD matches its own MIMD reference slot for slot.
			for slot := range ref.Mem[pe] {
				if ref.Mem[pe][slot] != re.Mem[pe][slot] {
					t.Fatalf("seed %d PE %d slot %d: expanded engines disagree\n%s", seed, pe, slot, src)
				}
			}
			// And the two pipelines agree on every source-level variable
			// (slot layouts differ, so compare by name).
			for name, eslot := range expanded.Graph.VarSlot {
				sslot := shared.Graph.VarSlot[name]
				if re.Mem[pe][eslot] != rs.Mem[pe][sslot] {
					t.Fatalf("seed %d PE %d var %s: expanded %d != shared %d\n%s",
						seed, pe, name, re.Mem[pe][eslot], rs.Mem[pe][sslot], src)
				}
			}
		}
	}
}

// TestParallelConversionScale pushes large generated programs through
// the whole public pipeline with the conversion worker pool forced on
// and off: the automata must be byte-identical (state numbering,
// transition order, renderings) and the compiled programs must execute
// identically. This is the end-to-end face of the msc-internal
// determinism property tests.
func TestParallelConversionScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep skipped in -short")
	}
	for seed := int64(700); seed < 706; seed++ {
		src := progen.Source(progen.Params{
			Seed: seed, Barriers: true, Floats: true, Calls: true,
			MaxDepth: 4, MaxStmts: 7, Vars: 6, LoopTrip: 4,
		})
		name := fmt.Sprintf("seed%d", seed)
		seqConf := msc.DefaultConfig()
		seqConf.ConvertWorkers = 1
		parConf := msc.DefaultConfig()
		parConf.ConvertWorkers = 4
		seq, err := msc.Compile(src, seqConf)
		if err != nil {
			t.Fatalf("%s: sequential: %v\n%s", name, err, src)
		}
		par, err := msc.Compile(src, parConf)
		if err != nil {
			t.Fatalf("%s: parallel: %v\n%s", name, err, src)
		}
		if seq.Automaton.String() != par.Automaton.String() {
			t.Fatalf("%s: automata diverge\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
				name, seq.Automaton, par.Automaton)
		}
		if seq.Automaton.Dot(name) != par.Automaton.Dot(name) {
			t.Fatalf("%s: Dot renderings diverge", name)
		}
		rc := msc.RunConfig{N: 32}
		rs, err := seq.RunSIMD(rc)
		if err != nil {
			t.Fatalf("%s: seq simd: %v", name, err)
		}
		rp, err := par.RunSIMD(rc)
		if err != nil {
			t.Fatalf("%s: par simd: %v", name, err)
		}
		if rs.Time != rp.Time {
			t.Fatalf("%s: cycle counts diverge: %d != %d", name, rs.Time, rp.Time)
		}
		for pe := 0; pe < 32; pe++ {
			for slot := range rs.Mem[pe] {
				if rs.Mem[pe][slot] != rp.Mem[pe][slot] {
					t.Fatalf("%s: PE %d slot %d: %d != %d", name, pe, slot, rs.Mem[pe][slot], rp.Mem[pe][slot])
				}
			}
		}
	}
}

// TestRunAllocations pins what one RunSIMD of divergent allocates at
// 65,536 PEs on one worker: the fewest bytes and objects of three runs.
// The stack layout sizes each chunk's evaluation slab from the
// program's deepest stack (2 rows here), keeps no per-PE depth array
// and allocates return rows only for a program that pushes return
// sites; the run took 4.07 MB in 77 objects, where an 8-row slab, a
// depth array and return rows took 8.52 MB in 96. The byte bound is
// about 1.1 times 4.07 MB; the object bound is the 96.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const maxBytes, maxObjects = 4_476_000, 96
	c := msc.MustCompile(harness.Divergent, msc.DefaultConfig())
	bytes, objects := uint64(1<<63), uint64(1<<63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.RunSIMD(msc.RunConfig{N: 65536, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("RunSIMD(divergent, N=65536) allocated %d bytes in %d objects, bound %d bytes and %d objects",
			bytes, objects, maxBytes, maxObjects)
	}
	t.Logf("%d bytes in %d objects", bytes, objects)
}
