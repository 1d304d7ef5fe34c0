package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestCLITraceChrome(t *testing.T) {
	path := writeProg(t, cliProg)
	out, _, err := runCLI(t, "trace", "-compress", "-run", "-n", "4", path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	events, ok := doc["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Fatal("chrome trace has no traceEvents")
	}
	names := map[string]bool{}
	for _, e := range events {
		if m, ok := e.(map[string]any); ok {
			if n, ok := m["name"].(string); ok {
				names[n] = true
			}
		}
	}
	for _, want := range []string{"compile", "phase.convert", "run.simd"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %v)", want, names)
		}
	}
}

func TestCLITraceJSONLToFile(t *testing.T) {
	path := writeProg(t, cliProg)
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	_, errOut, err := runCLI(t, "trace", "-format", "jsonl", "-o", out, path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "wrote ") || !strings.Contains(errOut, "jsonl format") {
		t.Errorf("missing write banner:\n%s", errOut)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sawCompile := false
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if span["name"] == "compile" {
			sawCompile = true
		}
	}
	if !sawCompile {
		t.Error("no compile span in JSONL export")
	}
}

func TestCLITraceErrors(t *testing.T) {
	good := writeProg(t, cliProg)
	if _, _, err := runCLI(t, "trace"); err == nil {
		t.Error("no-args accepted")
	}
	if _, _, err := runCLI(t, "trace", "-format=xml", good); err == nil {
		t.Error("unknown format accepted")
	}
	if _, _, err := runCLI(t, "trace", "-run", "-engine=nope", good); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestCLIProfileFolded(t *testing.T) {
	path := writeProg(t, cliProg)
	out, _, err := runCLI(t, "profile", "-compress", "-n", "8", "-folded", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simd;ms") {
		t.Fatalf("folded output has no meta-state frames:\n%s", out)
	}
	// Every line must be "stack count".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		i := strings.LastIndex(line, " ")
		if i <= 0 || strings.ContainsAny(line[:i], " \t") {
			t.Fatalf("not a folded-stack line: %q", line)
		}
	}
	// A coarse sampling period still produces output on this workload.
	sampled, _, err := runCLI(t, "profile", "-compress", "-n", "8", "-folded", "-sample-period", "10", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) == 0 {
		t.Error("sampled folded output empty")
	}
}

// TestCLIProfileCSILines checks that CSI keeps source lines in the
// profile: on divergent.mc every cycle of ms1's block 1 (line 12,
// x = x + 100) folds onto line_12 with -csi, exactly as without it,
// instead of onto a bare block frame.
func TestCLIProfileCSILines(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "mc", "divergent.mc")
	frames := func(args ...string) map[string]int {
		out, _, err := runCLI(t, append(append([]string{"profile"}, args...), "-compress", "-n", "8", "-folded", path)...)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			i := strings.LastIndex(line, " ")
			n, err := strconv.Atoi(line[i+1:])
			if err != nil {
				t.Fatalf("not a folded-stack line: %q", line)
			}
			if strings.HasPrefix(line, "simd;ms1;b1") {
				m[line[:i]] += n
			}
		}
		return m
	}
	plain, csi := frames(), frames("-csi")
	if len(plain) != 1 || plain["simd;ms1;b1;line_12"] == 0 {
		t.Fatalf("without CSI, ms1;b1 frames = %v, want only line_12", plain)
	}
	if len(csi) != 1 || csi["simd;ms1;b1;line_12"] != plain["simd;ms1;b1;line_12"] {
		t.Fatalf("with -csi, ms1;b1 frames = %v, want %v", csi, plain)
	}
}

func TestCLIPprofMetrics(t *testing.T) {
	path := writeProg(t, cliProg)
	var out, errb bytes.Buffer
	if err := run([]string{"-pprof", "127.0.0.1:0", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "Prometheus at /metrics") {
		t.Errorf("metrics banner missing:\n%s", errb.String())
	}
}
