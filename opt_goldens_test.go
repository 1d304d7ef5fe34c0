package msc_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msc"
	"msc/internal/harness"
)

// The opt goldens lock the optimizer's structural effect on the
// committed corpus: for every program, the MIMD state count and
// meta-state count of the baseline and the Opt:2 build. Any pass
// change that alters what the optimizer deletes — or worse, starts
// growing an automaton — shows up as a byte diff here before it shows
// up as a benchmark regression. The same table pins the benchmark
// corpus's deterministic counts exactly: automaton sizes and the cycle
// counts of all three engines per harness.BenchSuite workload, and the
// SIMD VM's cycle accounting across the width sweep. Regenerate
// deliberately with UPDATE_OPT_GOLDENS=1 and review the diff like code.
var updateOptGoldens = os.Getenv("UPDATE_OPT_GOLDENS") != ""

const optGoldensPath = "testdata/opt/goldens.txt"

func TestOptGoldens(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# file  base_states  opt_states  base_meta  opt_meta\n")
	baseConf, optConf := optConfigs()
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.ToSlash(file)
		cb, berr := msc.Compile(string(src), baseConf)
		co, oerr := msc.Compile(string(src), optConf)
		if berr != nil || oerr != nil {
			// Budget-limited programs are locked as such: silently
			// starting (or stopping) to compile is also a change.
			fmt.Fprintf(&buf, "%s  base_err=%v opt_err=%v\n", name, berr != nil, oerr != nil)
			continue
		}
		fmt.Fprintf(&buf, "%s  %d  %d  %d  %d\n",
			name, cb.MIMDStates(), co.MIMDStates(), cb.MetaStates(), co.MetaStates())
	}
	writeSuiteRows(t, &buf, baseConf, optConf)
	skipped := writeSweepRows(t, &buf, baseConf)
	if updateOptGoldens {
		if len(skipped) > 0 {
			t.Fatalf("cannot regenerate with %d sweep rows skipped; rerun without -race", len(skipped))
		}
		if err := os.MkdirAll(filepath.Dir(optGoldensPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(optGoldensPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", optGoldensPath)
		return
	}
	want, err := os.ReadFile(optGoldensPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with UPDATE_OPT_GOLDENS=1): %v", err)
	}
	want = dropRows(want, skipped)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("opt goldens changed; if intended, regenerate with UPDATE_OPT_GOLDENS=1 and review\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// writeSuiteRows pins every harness.BenchSuite workload at its own
// width: MIMD states, meta states of the base and Opt:2 builds, and the
// cycle counts of SIMD, MIMD and the §1.1 interpreter. Two properties
// are asserted on every row, also while regenerating: the interpreter
// is slower than meta-state converted code, and Opt:2 never adds meta
// states.
func writeSuiteRows(t *testing.T, buf *bytes.Buffer, baseConf, optConf msc.Config) {
	t.Helper()
	fmt.Fprintf(buf, "# suite workload  width  mimd_states  meta_states  opt_meta  simd_cycles  mimd_cycles  interp_cycles\n")
	for _, wl := range harness.BenchSuite() {
		c, err := msc.Compile(wl.Source, baseConf)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		oc, err := msc.Compile(wl.Source, optConf)
		if err != nil {
			t.Fatalf("%s: Opt:2: %v", wl.Name, err)
		}
		rc := msc.RunConfig{N: wl.Width, InitialActive: wl.InitialActive}
		simdRes, err := c.RunSIMD(rc)
		if err != nil {
			t.Fatalf("%s: simd: %v", wl.Name, err)
		}
		mimdRes, err := c.RunMIMD(rc)
		if err != nil {
			t.Fatalf("%s: mimd: %v", wl.Name, err)
		}
		interpRes, err := c.RunInterp(rc)
		if err != nil {
			t.Fatalf("%s: interp: %v", wl.Name, err)
		}
		if interpRes.Time <= simdRes.Time {
			t.Errorf("%s: interpreter took %d cycles, not more than SIMD's %d", wl.Name, interpRes.Time, simdRes.Time)
		}
		if oc.MetaStates() > c.MetaStates() {
			t.Errorf("%s: Opt:2 has %d meta states, base %d", wl.Name, oc.MetaStates(), c.MetaStates())
		}
		fmt.Fprintf(buf, "suite %s  %d  %d  %d  %d  %d  %d  %d\n", wl.Name, wl.Width,
			c.MIMDStates(), c.MetaStates(), oc.MetaStates(), simdRes.Time, mimdRes.Time, interpRes.Time)
	}
}

// sweepWidths are the machine widths every harness.SweepWorkloads
// program runs at. Collatz's per-PE work grows with iproc, so it stops
// at sweepCollatzMaxWidth.
var sweepWidths = []int{16, 1 << 10, 1 << 16, 1 << 20}

const sweepCollatzMaxWidth = 1 << 16

// writeSweepRows pins the SIMD VM's cycle accounting across widths:
// Time, which every PE pays (N×Time is the issued PE-cycle count), and
// EnabledCycles, the PE-cycles enabled PEs did work in (N×Time over
// EnabledCycles is inverse utilization). Under -race, widths above
// 1<<16 are skipped, as in TestVectorizedMegaWidth; the returned row
// prefixes name the rows left unchecked.
func writeSweepRows(t *testing.T, buf *bytes.Buffer, conf msc.Config) (skipped []string) {
	t.Helper()
	fmt.Fprintf(buf, "# sweep workload  width  simd_time  enabled_cycles\n")
	for _, wl := range harness.SweepWorkloads() {
		c, err := msc.Compile(wl.Source, conf)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		for _, n := range sweepWidths {
			if wl.Name == "collatz" && n > sweepCollatzMaxWidth {
				continue
			}
			row := fmt.Sprintf("sweep %s  %d  ", wl.Name, n)
			if raceEnabled && n > 1<<16 {
				skipped = append(skipped, row)
				continue
			}
			res, err := c.RunSIMD(msc.RunConfig{N: n, InitialActive: wl.InitialActive})
			if err != nil {
				t.Fatalf("%s@%d: %v", wl.Name, n, err)
			}
			fmt.Fprintf(buf, "%s%d  %d\n", row, res.Time, res.EnabledCycles)
		}
	}
	return skipped
}

// dropRows removes the golden lines that start with any of prefixes.
func dropRows(golden []byte, prefixes []string) []byte {
	if len(prefixes) == 0 {
		return golden
	}
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		keep := true
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				keep = false
				break
			}
		}
		if keep {
			out.WriteString(line)
		}
	}
	return out.Bytes()
}
