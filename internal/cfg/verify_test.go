package cfg

import (
	"strings"
	"testing"

	"msc/internal/ir"
)

// verifyGraph builds a minimal well-formed two-block graph that passes
// VerifyAll, for the corruption tests to break one invariant at a time.
func verifyGraph() *Graph {
	g := &Graph{MonoSlots: 1, Words: 4}
	b0 := g.newBlock("entry")
	b1 := g.newBlock("exit")
	b0.Code = []ir.Instr{
		{Op: ir.PushC, Imm: 1, Ty: ir.Int},
		{Op: ir.StLocal, Imm: 2},
		{Op: ir.LdLocal, Imm: 2},
	}
	b0.Term = Branch
	b0.Next = b1.ID
	b0.FNext = b1.ID
	b1.Term = End
	g.Entry = b0.ID
	return g
}

func TestVerifyAllAcceptsWellFormed(t *testing.T) {
	if err := VerifyAll(verifyGraph()); err != nil {
		t.Fatalf("VerifyAll rejected a well-formed graph: %v", err)
	}
}

func TestVerifyAllCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(g *Graph)
		want    string
	}{
		{"id-index-mismatch", func(g *Graph) { g.Blocks[1].ID = 7 }, "carries ID"},
		{"mono-slot-out-of-range", func(g *Graph) {
			g.Blocks[1].Code = []ir.Instr{{Op: ir.LdMono, Imm: 3}, {Op: ir.Pop, Imm: 1}}
		}, "mono slot"},
		{"local-slot-out-of-range", func(g *Graph) {
			g.Blocks[1].Code = []ir.Instr{{Op: ir.LdLocal, Imm: 99}, {Op: ir.Pop, Imm: 1}}
		}, "outside"},
		{"negative-pop", func(g *Graph) {
			// Balanced overall (a negative count pops nothing) so the
			// structural check, not the stack balance check, is what
			// trips.
			g.Blocks[1].Code = []ir.Instr{
				{Op: ir.PushC, Imm: 1, Ty: ir.Int}, {Op: ir.Pop, Imm: -1}, {Op: ir.Pop, Imm: 1}}
		}, "negative count"},
		{"void-constant", func(g *Graph) {
			g.Blocks[1].Code = []ir.Instr{{Op: ir.PushC, Imm: 0, Ty: ir.Void}, {Op: ir.Pop, Imm: 1}}
		}, "void constant"},
		{"branch-missing-arm", func(g *Graph) { g.Blocks[0].FNext = None }, "dangling successor"},
		{"goto-no-successor", func(g *Graph) {
			// Caught as a dangling successor by the base Verify.
			g.Blocks[0].Code = g.Blocks[0].Code[:2] // drop the condition load
			g.Blocks[0].Term = Goto
			g.Blocks[0].Next = None
		}, "dangling successor"},
		{"stale-ret-targets", func(g *Graph) { g.Blocks[1].RetTargets = []int{0} }, "carries return targets"},
		{"negative-position", func(g *Graph) {
			g.Blocks[1].Code = []ir.Instr{{Op: ir.Nop, Pos: ir.Pos{Line: -1, Col: 2}}}
		}, "negative source position"},
		{"stack-imbalance", func(g *Graph) {
			g.Blocks[1].Code = []ir.Instr{{Op: ir.PushC, Imm: 5, Ty: ir.Int}}
		}, "net stack effect"},
		{"pops-below-entry", func(g *Graph) {
			g.Blocks[1].Code = []ir.Instr{{Op: ir.Pop, Imm: 1}, {Op: ir.PushC, Imm: 1, Ty: ir.Int}, {Op: ir.Pop, Imm: 1}}
		}, "below its entry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := verifyGraph()
			c.corrupt(g)
			err := VerifyAll(g)
			if err == nil {
				t.Fatalf("VerifyAll accepted corrupted graph (%s)", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("VerifyAll error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestVerifyAllOnBuiltGraphs checks the invariants hold for real
// lowered programs, raw and simplified, with and without call
// expansion — the states VerifyAll is run against in the pipeline.
func TestVerifyAllOnBuiltGraphs(t *testing.T) {
	const src = `
mono int total;
poly int x;
int double(int v) { return v * 2; }
void main()
{
    poly int i;
    x = 0;
    for (i = 0; i < 3; i = i + 1) {
        x = x + double(i);
    }
    wait;
    total = x;
    return;
}
`
	prog, err := parseAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, expand := range []bool{false, true} {
		g, err := BuildWith(prog, Options{ExpandCalls: expand})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyAll(g); err != nil {
			t.Errorf("raw graph (expand=%v): %v", expand, err)
		}
		Simplify(g)
		if err := VerifyAll(g); err != nil {
			t.Errorf("simplified graph (expand=%v): %v", expand, err)
		}
	}
}
