package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-run", "F5"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "F5") || !strings.Contains(out.String(), "Measured: 2") {
		t.Fatalf("F5 output unexpected:\n%s", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-run", "Z9"}, &out, &errb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestReportToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var out, errb bytes.Buffer
	// A single cheap experiment with header keeps the test fast.
	if err := run([]string{"-run", "F1", "-header", "-o", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# EXPERIMENTS") || !strings.Contains(string(data), "## F1") {
		t.Fatalf("report file unexpected:\n%s", data)
	}
}

// TestReportWriteError requires a report that cannot be written to
// fail the command, so `make experiments` cannot leave a truncated
// EXPERIMENTS.md behind a success message.
func TestReportWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-run", "F1", "-o", "/dev/full"}, &out, &errb); err == nil {
		t.Fatalf("writing the report to /dev/full succeeded; stderr:\n%s", errb.String())
	}
	if strings.Contains(errb.String(), "F1 ok") {
		t.Fatalf("failed write still reported success:\n%s", errb.String())
	}
}

// updateExperiments rewrites EXPERIMENTS.md from the current code
// instead of comparing against it; review the diff like code.
var updateExperiments = os.Getenv("UPDATE_EXPERIMENTS") != ""

const experimentsPath = "../../EXPERIMENTS.md"

// TestExperimentsGolden regenerates the full report the way `make
// experiments` does and requires it to match the committed
// EXPERIMENTS.md byte for byte, so the paper-reproduction numbers
// cannot drift from the code unseen. Regenerate deliberately with
// UPDATE_EXPERIMENTS=1.
func TestExperimentsGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	var out, errb bytes.Buffer
	if err := run([]string{"-o", path, "-header"}, &out, &errb); err != nil {
		t.Fatalf("%v\n%s", err, errb.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if updateExperiments {
		if err := os.WriteFile(experimentsPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", experimentsPath)
		return
	}
	want, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_EXPERIMENTS=1): %v", experimentsPath, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || i >= len(gl) || i >= len(wl) {
			t.Fatalf("EXPERIMENTS.md differs from the regenerated report at line %d (%d lines generated, %d committed)\n got: %q\nwant: %q\nif intended, regenerate with UPDATE_EXPERIMENTS=1 and review the diff",
				i+1, len(gl), len(wl), g, w)
		}
	}
}
