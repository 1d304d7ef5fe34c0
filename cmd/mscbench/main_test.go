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
