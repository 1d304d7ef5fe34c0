package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"msc/internal/simd"
)

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliProg = `
poly int x;
void main()
{
    x = iproc % 3;
    if (x) {
        do { x = x - 1; } while (x);
    } else {
        do { x = x + 2; } while (x < 4);
    }
    return;
}
`

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestCLIStats(t *testing.T) {
	path := writeProg(t, cliProg)
	out, _, err := runCLI(t, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MIMD states:", "meta states:", "hashed dispatches:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIEmitVariants(t *testing.T) {
	path := writeProg(t, cliProg)
	cases := map[string]string{
		"graph":     "state 0",
		"dot":       "digraph",
		"automaton": "start: ms0",
		"autodot":   "digraph",
		"mpl":       "globalor",
	}
	for emit, want := range cases {
		out, _, err := runCLI(t, "-emit="+emit, path)
		if err != nil {
			t.Fatalf("-emit=%s: %v", emit, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("-emit=%s output missing %q:\n%s", emit, want, out)
		}
	}
}

func TestCLIRunEngines(t *testing.T) {
	path := writeProg(t, cliProg)
	for engine, want := range map[string]string{
		"simd":   "meta-state SIMD",
		"mimd":   "ideal MIMD reference",
		"interp": "interpreter on SIMD",
	} {
		out, _, err := runCLI(t, "-run", "-compress", "-n", "6", "-engine", engine, path)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if !strings.Contains(out, want) || !strings.Contains(out, "x:") {
			t.Errorf("engine %s output unexpected:\n%s", engine, out)
		}
	}
}

func TestCLITrace(t *testing.T) {
	path := writeProg(t, cliProg)
	_, errOut, err := runCLI(t, "-run", "-compress", "-n", "4", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "apc=") {
		t.Errorf("trace output missing:\n%s", errOut)
	}
}

// TestCLIWideTrace pins the width rule at the CLI: the text trace has
// no per-PE payload and runs one PE above simd.ObsWidthCap, while the
// timeline reads per-PE rows and is refused there with one line.
func TestCLIWideTrace(t *testing.T) {
	path := writeProg(t, cliProg)
	wide := strconv.Itoa(simd.ObsWidthCap + 1)
	_, errOut, err := runCLI(t, "-run", "-trace", "-n", wide, path)
	if err != nil {
		t.Fatalf("-trace -n %s: %v", wide, err)
	}
	if !strings.Contains(errOut, "-> exit") {
		t.Errorf("-trace -n %s: trace output missing:\n%s", wide, errOut)
	}
	_, _, err = runCLI(t, "-run", "-timeline", "-n", wide, path)
	if err == nil {
		t.Fatalf("-timeline -n %s accepted", wide)
	}
	line := errorLine(err)
	if strings.Contains(line, "\n") || strings.Count(line, "msc:") != 1 ||
		!strings.Contains(line, strconv.Itoa(simd.ObsWidthCap)) {
		t.Errorf("-timeline -n %s: want one msc:-prefixed line naming the %d cap, got %q", wide, simd.ObsWidthCap, line)
	}
}

// TestCLITraceAndTimeline attaches both text views to one run: each
// meta state writes its timeline row at entry and its trace line after
// dispatch, so the two alternate on stderr.
func TestCLITraceAndTimeline(t *testing.T) {
	path := writeProg(t, cliProg)
	_, errOut, err := runCLI(t, "-run", "-n", "4", "-trace", "-timeline", path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(errOut, "\n"), "\n")
	if len(lines) < 2 || len(lines)%2 != 0 {
		t.Fatalf("want timeline rows and trace lines in pairs, got %d lines:\n%s", len(lines), errOut)
	}
	for i, line := range lines {
		row := strings.HasSuffix(line, " |")
		trace := strings.Contains(line, " -> ")
		if i%2 == 0 && !row || i%2 == 1 && !trace {
			t.Fatalf("line %d out of place:\n%s", i+1, errOut)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	if _, _, err := runCLI(t); err == nil {
		t.Error("no-args accepted")
	}
	if _, _, err := runCLI(t, "/nonexistent/file.mc"); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeProg(t, "void main() { undefined = 1; }")
	if _, _, err := runCLI(t, bad); err == nil {
		t.Error("bad program accepted")
	}
	good := writeProg(t, cliProg)
	if _, _, err := runCLI(t, "-emit=nope", good); err == nil {
		t.Error("unknown emit accepted")
	}
	if _, _, err := runCLI(t, "-run", "-engine=nope", good); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestCLIEmitGo(t *testing.T) {
	path := writeProg(t, cliProg)
	out, _, err := runCLI(t, "-compress", "-csi", "-emit=go", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package main", "func run(", "apcOf"} {
		if !strings.Contains(out, want) {
			t.Errorf("-emit=go output missing %q", want)
		}
	}
}

func TestCLITimeline(t *testing.T) {
	path := writeProg(t, cliProg)
	_, errOut, err := runCLI(t, "-run", "-compress", "-n", "3", "-timeline", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "|") || !strings.Contains(errOut, "ms0") {
		t.Errorf("timeline output missing:\n%s", errOut)
	}
}

func TestCLIProfileTable(t *testing.T) {
	path := writeProg(t, cliProg)
	out, _, err := runCLI(t, "profile", "-n", "8", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cycles total", "mean-live", "mean-enab", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
	// The total row must carry 100.0%: every cycle is attributed.
	if !strings.Contains(out, "100.0%") {
		t.Errorf("profile total row missing 100%%:\n%s", out)
	}
}

func TestCLIProfileTop(t *testing.T) {
	path := writeProg(t, cliProg)
	all, _, err := runCLI(t, "profile", "-n", "8", path)
	if err != nil {
		t.Fatal(err)
	}
	top, _, err := runCLI(t, "profile", "-n", "8", "-top", "1", path)
	if err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(top, "\nms"); c != 1 {
		t.Errorf("-top=1 shows %d states, want 1:\n%s", c, top)
	}
	if strings.Count(all, "\nms") <= 1 {
		t.Errorf("full profile shows too few states:\n%s", all)
	}
}

func TestCLIProfileDot(t *testing.T) {
	path := writeProg(t, cliProg)
	out, _, err := runCLI(t, "profile", "-n", "8", "-dot", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "fillcolor=") {
		t.Errorf("profile -dot output not a heatmap:\n%s", out)
	}
	if !strings.Contains(out, "%\"") {
		t.Errorf("profile -dot labels missing percentages:\n%s", out)
	}
}

func TestCLIPprof(t *testing.T) {
	path := writeProg(t, cliProg)
	var out, errb bytes.Buffer
	// 127.0.0.1:0 picks a free port; the server only needs to come up
	// and be torn down cleanly around the compile.
	if err := run([]string{"-pprof", "127.0.0.1:0", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "debug server on http://127.0.0.1:") {
		t.Errorf("pprof banner missing:\n%s", errb.String())
	}
}
