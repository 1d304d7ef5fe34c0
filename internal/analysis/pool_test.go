package analysis_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msc/internal/analysis"
	"msc/internal/cfg"
	"msc/internal/harness"
	"msc/internal/mimdc"
	"msc/internal/progen"
)

// poolSources returns the programs of the repository benchmark's
// compile workload (perfbench/compile.go) — the paper suite, every
// committed .mc program outside testdata/vet/bad, and the 24-program
// generated fleet — plus the 120 generated programs of
// TestOptDifferentialProgen.
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
		srcs[fmt.Sprintf("fleet-%d", p.Seed)] = progen.Source(p)
	}
	for seed := int64(0); seed < 120; seed++ {
		srcs[fmt.Sprintf("progen-%d", seed)] = progen.Source(progen.Params{
			Seed: seed, Barriers: seed%2 == 0, Floats: seed%3 == 0, Calls: seed%5 == 0,
			MaxDepth: 2, MaxStmts: 5,
		})
	}
	return srcs
}

// TestDataflowMatchesReferenceOnPool compares every analysis with the
// map-keyed reference on the raw and the simplified graph of each pool
// program, with calls kept and with calls expanded.
func TestDataflowMatchesReferenceOnPool(t *testing.T) {
	graphs := 0
	for name, src := range poolSources(t) {
		ast, err := mimdc.Parse(src)
		if err == nil {
			err = mimdc.Analyze(ast)
		}
		if err != nil {
			continue // the robustness corpus holds programs the front end rejects
		}
		for _, expand := range []bool{false, true} {
			g, err := cfg.BuildWith(ast, cfg.Options{ExpandCalls: expand})
			if err != nil {
				continue
			}
			sg := g.Clone()
			cfg.Simplify(sg)
			for _, gr := range []*cfg.Graph{g, sg} {
				if err := analysis.CompareWithReference(gr); err != nil {
					t.Fatalf("%s (expand calls %v): %v", name, expand, err)
				}
				graphs++
			}
		}
	}
	if graphs < 600 {
		t.Fatalf("only %d pool graphs compared", graphs)
	}
	t.Logf("%d pool graphs match the reference", graphs)
}
