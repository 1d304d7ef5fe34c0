package analysis

import (
	"testing"

	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// mini builds a graph from hand-written blocks; Blocks[i].ID is set to i.
func mini(entry int, blocks ...*cfg.Block) *cfg.Graph {
	for i, b := range blocks {
		b.ID = i
	}
	words := 8
	return &cfg.Graph{
		Blocks:  blocks,
		Entry:   entry,
		Words:   words,
		RetSlot: map[string]int{},
		VarSlot: map[string]int{},
	}
}

func st(slot int, name string) ir.Instr {
	return ir.Instr{Op: ir.StLocal, Imm: int64(slot), Sym: name}
}

func ld(slot int, name string) ir.Instr {
	return ir.Instr{Op: ir.LdLocal, Imm: int64(slot), Sym: name}
}

func elems(s *bitset.Set) []int { return s.Elems() }

func wantSet(t *testing.T, what string, got *bitset.Set, want ...int) {
	t.Helper()
	if !got.Equal(bitset.Of(want...)) {
		t.Errorf("%s = %v, want %v", what, elems(got), want)
	}
}

// TestSolveForwardUnion checks gen/kill propagation through a diamond:
// facts from both arms union at the join.
func TestSolveForwardUnion(t *testing.T) {
	//      0: gen{0}
	//     / \
	//    1   2        1: gen{1}  2: gen{2}, kill{0}
	//     \ /
	//      3
	g := mini(0,
		&cfg.Block{Term: cfg.Branch, Next: 1, FNext: 2},
		&cfg.Block{Term: cfg.Goto, Next: 3},
		&cfg.Block{Term: cfg.Goto, Next: 3},
		&cfg.Block{Term: cfg.End},
	)
	gen := map[int][]int{0: {0}, 1: {1}, 2: {2}}
	kill := map[int][]int{2: {0}}
	res := Solve(g, Problem{
		Dir:      Forward,
		Meet:     Union,
		Universe: 4,
		Transfer: func(b *cfg.Block, in, out *bitset.Set) {
			out.CopyFrom(in)
			for _, k := range kill[b.ID] {
				out.Remove(k)
			}
			for _, x := range gen[b.ID] {
				out.Add(x)
			}
		},
	})
	wantSet(t, "In[3]", res.In[3], 0, 1, 2)
	wantSet(t, "Out[1]", res.Out[1], 0, 1)
	wantSet(t, "Out[2]", res.Out[2], 2)
	wantSet(t, "In[0]", res.In[0]) // entry boundary is empty
}

// TestSolveForwardIntersect checks a must-analysis: only facts
// generated on every path survive the join.
func TestSolveForwardIntersect(t *testing.T) {
	g := mini(0,
		&cfg.Block{Term: cfg.Branch, Next: 1, FNext: 2},
		&cfg.Block{Term: cfg.Goto, Next: 3},
		&cfg.Block{Term: cfg.Goto, Next: 3},
		&cfg.Block{Term: cfg.End},
	)
	gen := map[int][]int{0: {0}, 1: {1, 2}, 2: {2}}
	res := Solve(g, Problem{
		Dir:      Forward,
		Meet:     Intersect,
		Universe: 4,
		Transfer: func(b *cfg.Block, in, out *bitset.Set) {
			out.CopyFrom(in)
			for _, x := range gen[b.ID] {
				out.Add(x)
			}
		},
	})
	// Both arms add 2; only arm 1 adds 1. Fact 0 flows from the entry.
	wantSet(t, "In[3]", res.In[3], 0, 2)
}

// TestSolveBackwardUnion checks liveness-style flow against the edges.
func TestSolveBackwardUnion(t *testing.T) {
	//  0 -> 1 -> 2(end)
	// use{1: {3}}, def{1: {5}}; boundary (live at exit) = {5}
	g := mini(0,
		&cfg.Block{Term: cfg.Goto, Next: 1},
		&cfg.Block{Term: cfg.Goto, Next: 2},
		&cfg.Block{Term: cfg.End},
	)
	res := Solve(g, Problem{
		Dir:      Backward,
		Meet:     Union,
		Universe: 8,
		Boundary: bitset.Of(5),
		Transfer: func(b *cfg.Block, out, in *bitset.Set) {
			in.CopyFrom(out)
			if b.ID == 1 {
				in.Remove(5) // def kills
				in.Add(3)    // use gens
			}
		},
	})
	// In/Out are entry/exit facts regardless of direction.
	wantSet(t, "Out[2]", res.Out[2], 5)
	wantSet(t, "In[1]", res.In[1], 3)
	wantSet(t, "Out[0]", res.Out[0], 3)
}

// TestSolveLoopFixpoint checks convergence over a cycle: a fact
// generated before a loop survives around the back edge.
func TestSolveLoopFixpoint(t *testing.T) {
	//  0 -> 1 <-> 2 ; 1 -> 3(end)
	g := mini(0,
		&cfg.Block{Term: cfg.Goto, Next: 1},
		&cfg.Block{Term: cfg.Branch, Next: 2, FNext: 3},
		&cfg.Block{Term: cfg.Goto, Next: 1},
		&cfg.Block{Term: cfg.End},
	)
	gen := map[int][]int{0: {0}, 2: {1}}
	res := Solve(g, Problem{
		Dir:      Forward,
		Meet:     Union,
		Universe: 2,
		Transfer: func(b *cfg.Block, in, out *bitset.Set) {
			out.CopyFrom(in)
			for _, x := range gen[b.ID] {
				out.Add(x)
			}
		},
	})
	wantSet(t, "In[1]", res.In[1], 0, 1) // via back edge from 2
	wantSet(t, "In[3]", res.In[3], 0, 1)
}

// TestSolveUnreachable checks that a block with no path from the
// boundary keeps the optimistic top value instead of poisoning the
// solution (Intersect) or leaking facts (Union).
func TestSolveUnreachable(t *testing.T) {
	g := mini(0,
		&cfg.Block{Term: cfg.End},
		&cfg.Block{Term: cfg.End}, // unreachable
	)
	union := Solve(g, Problem{
		Dir: Forward, Meet: Union, Universe: 3,
		Transfer: func(b *cfg.Block, in, out *bitset.Set) { out.CopyFrom(in) },
	})
	wantSet(t, "union In[1]", union.In[1]) // top for Union = empty
	must := Solve(g, Problem{
		Dir: Forward, Meet: Intersect, Universe: 3,
		Transfer: func(b *cfg.Block, in, out *bitset.Set) { out.CopyFrom(in) },
	})
	wantSet(t, "must In[1]", must.In[1], 0, 1, 2) // top for Intersect = full
}

// TestSolveSpawnEdges checks that spawn arcs carry facts into children.
func TestSolveSpawnEdges(t *testing.T) {
	g := mini(0,
		&cfg.Block{Term: cfg.Spawn, Next: 1, SpawnNext: 2},
		&cfg.Block{Term: cfg.End},
		&cfg.Block{Term: cfg.Halt},
	)
	gen := map[int][]int{0: {0}}
	res := Solve(g, Problem{
		Dir: Forward, Meet: Union, Universe: 1,
		Transfer: func(b *cfg.Block, in, out *bitset.Set) {
			out.CopyFrom(in)
			for _, x := range gen[b.ID] {
				out.Add(x)
			}
		},
	})
	wantSet(t, "In[1]", res.In[1], 0)
	wantSet(t, "In[2]", res.In[2], 0)
}

// TestReachingDefs checks the concrete pass end to end on a diamond
// with a redefinition in one arm.
func TestReachingDefs(t *testing.T) {
	g := mini(0,
		&cfg.Block{Code: []ir.Instr{st(3, "x")}, Term: cfg.Branch, Next: 1, FNext: 2},
		&cfg.Block{Code: []ir.Instr{st(3, "x")}, Term: cfg.Goto, Next: 3},
		&cfg.Block{Code: []ir.Instr{st(4, "y")}, Term: cfg.Goto, Next: 3},
		&cfg.Block{Code: []ir.Instr{ld(3, "x")}, Term: cfg.End},
	)
	r := ReachingDefs(g)
	if len(r.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(r.Sites))
	}
	// At the join: x's def from block 1 (which killed block 0's) and
	// x's def from block 0 via block 2's arm, plus y's def.
	in3 := r.In[3]
	var reaching []DefSite
	for _, id := range in3.Elems() {
		reaching = append(reaching, r.Sites[id])
	}
	byBlock := map[int]int{}
	for _, s := range reaching {
		byBlock[s.Block]++
	}
	if byBlock[0] != 1 || byBlock[1] != 1 || byBlock[2] != 1 {
		t.Errorf("reaching defs at join by block = %v, want one from each of 0,1,2", byBlock)
	}
}

// TestLivenessBoundary checks that globals stay live at exit and that
// remote slots never die.
func TestLivenessBoundary(t *testing.T) {
	g := mini(0,
		&cfg.Block{Code: []ir.Instr{st(3, "x"), st(4, "y")}, Term: cfg.End},
	)
	g.VarSlot["y"] = 4
	vars := CollectVars(g)
	vars.Remote.Add(5)
	live := Liveness(g, vars)
	if live.In[0].Has(3) {
		t.Error("slot 3 live at entry despite being overwritten and not exit-live")
	}
	if !live.Out[0].Has(4) {
		t.Error("global slot 4 not live at exit")
	}
	if !live.In[0].Has(5) {
		t.Error("remote slot 5 not permanently live")
	}
}
