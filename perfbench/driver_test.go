package main

import (
	"context"
	"errors"
	"testing"

	"msc"
	"msc/internal/harness"
	"msc/internal/ir"
	"msc/internal/mscerr"
)

// gateEntries covers each configuration family the workloads use:
// compressed with CSI, Opt:2, uncompressed with hash search, and §2.4
// time splitting.
func gateEntries() []progEntry {
	opt2 := msc.DefaultConfig()
	opt2.Opt = 2
	return []progEntry{
		{name: "divergent", src: harness.Divergent, conf: msc.DefaultConfig()},
		{name: "gcd@opt2", src: harness.GCD, conf: opt2},
		{name: "seqloops-3", src: harness.SeqLoops(3, false), conf: msc.Config{Hash: true}},
		{name: "imbalance-10", src: harness.Imbalance(10), conf: msc.Config{Hash: true, TimeSplit: true}},
	}
}

func TestGatePassesAndCountsRepeat(t *testing.T) {
	a, err := gate(context.Background(), gateEntries())
	if err != nil {
		t.Fatal(err)
	}
	b, err := gate(context.Background(), gateEntries())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("deterministic counts differ between runs:\n%+v\n%+v", a, b)
	}
	if a.hashTried == 0 || a.csiSaved == 0 || a.rewrites == 0 || a.restarts == 0 {
		t.Fatalf("a configuration family did no work: %+v", a)
	}
}

func TestGateCatchesDriverDrift(t *testing.T) {
	// A driver that compiled with other options than msc.Compile (here
	// CSI off, as if the copied option mapping had drifted) must fail
	// the gate.
	src := harness.Divergent
	c, err := msc.Compile(src, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	drifted := msc.DefaultConfig()
	drifted.CSI = false
	out, err := driveLayers(context.Background(), src, drifted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := replayCoding(out.auto, drifted)
	if err != nil {
		t.Fatal(err)
	}
	bad := mismatches(c, out, rp)
	if len(bad) < 2 || bad[0] != "fingerprint" {
		t.Fatalf("drifted driver not caught: %v", bad)
	}
	out, err = driveLayers(context.Background(), src, msc.DefaultConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp, err = replayCoding(out.auto, msc.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if bad := mismatches(c, out, rp); len(bad) != 0 {
		t.Fatalf("faithful driver flagged: %v", bad)
	}
}

func TestSameOutcome(t *testing.T) {
	img := [][]ir.Word{{1, 2}, {3, 4}}
	ref := &reference{mem: img}
	if err := sameOutcome([][]ir.Word{{1, 2, 9}, {3, 4, 9}}, nil, ref); err != nil {
		t.Errorf("appended spill slots must not count: %v", err)
	}
	if err := sameOutcome([][]ir.Word{{1, 2}, {3, 5}}, nil, ref); err == nil {
		t.Error("a differing word passed")
	}
	if err := sameOutcome([][]ir.Word{{1}, {3}}, nil, ref); err == nil {
		t.Error("a short image passed")
	}
	mainOnly := &reference{mem: img, pes: 1}
	if err := sameOutcome([][]ir.Word{{1, 2}, {7, 7}}, nil, mainOnly); err != nil {
		t.Errorf("a worker PE's words counted beyond pes: %v", err)
	}
	if err := sameOutcome([][]ir.Word{{1, 5}, {3, 4}}, nil, mainOnly); err == nil {
		t.Error("a differing word on main's PE passed")
	}
	step := &mscerr.StepLimitError{Engine: "simd", Limit: 10}
	if err := sameOutcome(nil, step, &reference{err: &mscerr.StepLimitError{Engine: "mimd", Limit: 10}}); err != nil {
		t.Errorf("step limits on both engines must match: %v", err)
	}
	if err := sameOutcome(nil, step, &reference{err: errors.New("spawn with no free processor")}); err == nil {
		t.Error("a step limit matched a runtime fault")
	}
	if err := sameOutcome(img, nil, &reference{err: step}); err == nil {
		t.Error("a completed run matched a reference error")
	}
}
