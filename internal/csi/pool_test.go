package csi_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msc"
	"msc/internal/bitset"
	"msc/internal/csi"
	"msc/internal/harness"
	"msc/internal/progen"
)

// poolSources returns the programs of the repository benchmark's
// compile workload (perfbench/compile.go): the paper suite, every
// committed .mc program outside testdata/vet/bad, and the 24-program
// generated fleet.
func poolSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	for _, w := range harness.BenchSuite() {
		srcs["suite/"+w.Name] = w.Source
	}
	for _, dir := range []string{"examples", "testdata"} {
		root := filepath.Join("..", "..", dir)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && filepath.ToSlash(path) == "../../testdata/vet/bad" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".mc") {
				return nil
			}
			src, err := os.ReadFile(path)
			srcs[path] = string(src)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		p := progen.Params{Seed: int64(9000 + i), MaxDepth: 2 + i%2, MaxStmts: 5}
		switch i % 4 {
		case 0:
			p.Barriers = true
		case 1:
			p.Floats, p.Calls = true, true
		case 2:
			p.Spawns = 2 + i%5
		default:
			p.Calls = true
		}
		srcs[fmt.Sprintf("progen-%d", p.Seed)] = progen.Source(p)
	}
	return srcs
}

// TestKernelMatchesReferenceOnCompilePool hands the kernel and the
// reference every CSI input of the compile workload's pool, at
// DefaultConfig and at Opt:2, built the way codegen builds them: the
// same schedule without a budget, and the same candidate count.
func TestKernelMatchesReferenceOnCompilePool(t *testing.T) {
	opt2 := msc.DefaultConfig()
	opt2.Opt = 2
	inputs, merged := 0, 0
	for name, src := range poolSources(t) {
		for _, conf := range []msc.Config{msc.DefaultConfig(), opt2} {
			c, err := msc.Compile(src, conf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			a := c.Automaton
			for _, ms := range a.States {
				allBarrier := ms.Set.Subset(a.Barriers)
				var threads []csi.Thread
				for _, id := range ms.Set.Elems() {
					b := a.G.Block(id)
					if b.Barrier && !allBarrier {
						continue
					}
					threads = append(threads, csi.Thread{Guard: bitset.Of(b.ID), Code: b.Code})
				}
				if err := csi.CompareWithReference(threads, csi.Limits{}); err != nil {
					t.Fatalf("%s opt %d ms%d: %v", name, conf.Opt, ms.ID, err)
				}
				if err := csi.CheckCandidateCount(threads); err != nil {
					t.Fatalf("%s opt %d ms%d: %v", name, conf.Opt, ms.ID, err)
				}
				inputs++
				if len(threads) > 1 {
					merged++
				}
			}
		}
	}
	if merged < 100 {
		t.Fatalf("only %d of %d pool inputs have more than one thread", merged, inputs)
	}
}
