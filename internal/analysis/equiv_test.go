package analysis

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// The block-indexed Solve and ConstFacts must reproduce the map-keyed
// reference (reference_test.go) exactly: every block's In and Out sets,
// and every block's entry constant environment and replay. The random
// graphs below are decoded from bytes, so the fixed-seed test and
// FuzzDataflow share one generator.

// genKill is a gen/kill problem over a graph's blocks, indexed by
// block ID.
type genKill struct {
	universe  int
	boundary  *bitset.Set
	gen, kill []*bitset.Set
}

func (gk *genKill) problem(dir Direction, meet MeetKind) Problem {
	return Problem{
		Dir: dir, Meet: meet, Universe: gk.universe, Boundary: gk.boundary,
		Transfer: func(b *cfg.Block, in, out *bitset.Set) {
			out.MinusOf(in, gk.kill[b.ID])
			out.UnionWith(gk.gen[b.ID])
		},
	}
}

func (gk *genKill) referenceProblem(dir Direction, meet MeetKind) referenceProblem {
	return referenceProblem{
		Dir: dir, Meet: meet, Universe: gk.universe, Boundary: gk.boundary,
		Transfer: func(b *cfg.Block, in *bitset.Set) *bitset.Set {
			return in.Minus(gk.kill[b.ID]).Union(gk.gen[b.ID])
		},
	}
}

// compareResults reports the first block whose facts differ.
func compareResults(what string, g *cfg.Graph, got *Result, want *referenceResult) error {
	if len(got.In) != len(g.Blocks) || len(got.Out) != len(g.Blocks) {
		return fmt.Errorf("%s: result has %d/%d entries for %d blocks", what, len(got.In), len(got.Out), len(g.Blocks))
	}
	live := 0
	for i, b := range g.Blocks {
		if b == nil {
			if got.In[i] != nil || got.Out[i] != nil {
				return fmt.Errorf("%s: facts for nil hole %d", what, i)
			}
			continue
		}
		live++
		if w, ok := want.In[i]; !ok || !got.In[i].Equal(w) {
			return fmt.Errorf("%s: In[%d] = %v, reference %v", what, i, got.In[i], w)
		}
		if w, ok := want.Out[i]; !ok || !got.Out[i].Equal(w) {
			return fmt.Errorf("%s: Out[%d] = %v, reference %v", what, i, got.Out[i], w)
		}
	}
	if len(want.In) != live || len(want.Out) != live {
		return fmt.Errorf("%s: reference has facts for %d/%d blocks, graph has %d", what, len(want.In), len(want.Out), live)
	}
	return nil
}

// entryEnv returns the constant facts at a block's entry as slot →
// value, the reference's representation.
func (r *ConstResult) entryEnv(blockID int) map[int]ConstVal {
	env := map[int]ConstVal{}
	for c, slot := range r.slots {
		if v := r.in[blockID*len(r.slots)+c]; v.Known {
			env[int(slot)] = v
		}
	}
	return env
}

// compareConsts checks ConstFacts against the reference: each block's
// entry environment, then a replay of the block's code from it, with
// the step notes, the stack top and the slots each instruction touches
// compared after every step and every slot compared at the end.
func compareConsts(g *cfg.Graph, vars *Vars) error {
	got := ConstFacts(g, vars)
	want := referenceConstFacts(g, vars)
	env := got.EnvAt(cfg.None)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		if e := got.entryEnv(b.ID); !maps.Equal(e, want.In[b.ID]) {
			return fmt.Errorf("consts: entry of block %d = %v, reference %v", b.ID, e, want.In[b.ID])
		}
		env.Enter(b.ID)
		ref := want.EnvAt(b.ID)
		for i, in := range b.Code {
			if n, rn := env.Step(in), ref.Step(in); n != rn {
				return fmt.Errorf("consts: block %d instr %d (%v): note %+v, reference %+v", b.ID, i, in, n, rn)
			}
			if top, rtop := env.Top(), ref.Top(); top != rtop {
				return fmt.Errorf("consts: block %d instr %d (%v): top %+v, reference %+v", b.ID, i, in, top, rtop)
			}
			if s := int(in.Imm); env.Slot(s) != ref.Slot(s) {
				return fmt.Errorf("consts: block %d instr %d (%v): slot %d = %+v, reference %+v", b.ID, i, in, s, env.Slot(s), ref.Slot(s))
			}
		}
		for s := 0; s < g.Words; s++ {
			if env.Slot(s) != ref.Slot(s) {
				return fmt.Errorf("consts: exit of block %d: slot %d = %+v, reference %+v", b.ID, s, env.Slot(s), ref.Slot(s))
			}
		}
	}
	return nil
}

// compareWithReference runs every analysis built on Solve and
// ConstFacts over g, new against reference, plus the gen/kill problem
// gk (when non-nil) in both directions with both meets.
func compareWithReference(g *cfg.Graph, gk *genKill) error {
	vars := CollectVars(g)
	init, rinit := InitAnalysis(g, vars), referenceInitAnalysis(g, vars)
	if err := compareResults("init may", g, init.May, rinit.May); err != nil {
		return err
	}
	if err := compareResults("init must", g, init.Must, rinit.Must); err != nil {
		return err
	}
	if err := compareResults("liveness", g, Liveness(g, vars), referenceLiveness(g, vars)); err != nil {
		return err
	}
	rd, rrd := ReachingDefs(g), referenceReachingDefs(g)
	if !reflect.DeepEqual(rd.Sites, rrd.Sites) {
		return fmt.Errorf("reaching defs: sites differ")
	}
	if err := compareResults("reaching defs", g, rd.Result, rrd.referenceResult); err != nil {
		return err
	}
	if gk != nil {
		for _, dir := range []Direction{Forward, Backward} {
			for _, meet := range []MeetKind{Union, Intersect} {
				what := fmt.Sprintf("gen/kill dir %d meet %d", dir, meet)
				got := Solve(g, gk.problem(dir, meet))
				want := referenceSolve(g, gk.referenceProblem(dir, meet))
				if err := compareResults(what, g, got, want); err != nil {
					return err
				}
			}
		}
	}
	return compareConsts(g, vars)
}

// byteSource hands out fuzz bytes, then zeros once they run out.
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) intn(n int) int {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return int(b) % n
}

// Shape bits of a decoded graph: the first byte plants the rarer
// structures on purpose.
const (
	shapeHoles       = 1 << iota // some non-entry blocks are nil holes
	shapeIrreducible             // a two-entry loop hangs off the entry
	shapeBoundary                // the problem has a non-empty boundary
	shapeDangling                // arcs may leave the graph (None, past the end)
)

// randomOps is the instruction alphabet of decoded block code: every
// case of ConstEnv.Step, plus an unknown opcode that poisons the
// environment.
var randomOps = []ir.Op{
	ir.PushC, ir.PushC, ir.PushC, ir.LdLocal, ir.LdLocal, ir.StLocal, ir.StLocal, ir.StLocal,
	ir.LdMono, ir.StMono, ir.Dup, ir.Pop, ir.LdIndex, ir.StIndex, ir.LdRemote, ir.StRemote,
	ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod, ir.Neg, ir.LNot, ir.CmpLt, ir.CmpEq,
	ir.IProc, ir.I2F, ir.FAdd, ir.FNeg, ir.PushRet, ir.Nop, ir.Op(250),
}

// decodeGraph builds a graph, block code and a gen/kill problem from
// bytes. Arcs may hit nil holes, loop on their own block, join equal
// Branch arms, fan out through RetBr (or name no return site at all)
// and spawn; blocks nothing reaches are common.
func decodeGraph(data []byte) (*cfg.Graph, *genKill, int) {
	src := &byteSource{data: data}
	shape := src.intn(256)
	n := 1 + src.intn(12)
	words := 1 + src.intn(12)
	g := &cfg.Graph{
		Blocks: make([]*cfg.Block, n), Entry: src.intn(n),
		MonoSlots: src.intn(words + 1), Words: words,
		RetSlot: map[string]int{}, VarSlot: map[string]int{"g": src.intn(words)},
	}
	target := func() int {
		if shape&shapeDangling != 0 && src.intn(8) == 0 {
			if src.intn(2) == 0 {
				return cfg.None
			}
			return n
		}
		return src.intn(n)
	}
	for i := range g.Blocks {
		if shape&shapeHoles != 0 && i != g.Entry && src.intn(3) == 0 {
			continue
		}
		b := &cfg.Block{ID: i, Next: cfg.None, FNext: cfg.None, SpawnNext: cfg.None}
		switch b.Term = cfg.TermKind(src.intn(6)); b.Term {
		case cfg.Goto:
			b.Next = target()
		case cfg.Branch:
			b.Next, b.FNext = target(), target()
			if src.intn(4) == 0 {
				b.FNext = b.Next
			}
		case cfg.RetBr:
			for k := src.intn(4); k > 0; k-- {
				b.RetTargets = append(b.RetTargets, target())
			}
		case cfg.Spawn:
			b.Next, b.SpawnNext = target(), target()
		}
		for k := src.intn(9); k > 0; k-- {
			in := ir.Instr{Op: randomOps[src.intn(len(randomOps))], Ty: ir.Int}
			switch in.Op {
			case ir.PushC:
				in.Imm = int64(src.intn(5) - 1)
				if src.intn(8) == 0 {
					in.Ty = ir.Float
				}
			case ir.Pop:
				in.Imm = int64(src.intn(3))
			default:
				in.Imm = int64(src.intn(words))
			}
			b.Code = append(b.Code, in)
		}
		g.Blocks[i] = b
	}
	// entry → a, entry → c, a ⇄ c: a loop with two entries. The shape
	// bit stays set only when the loop was planted.
	a, c := (g.Entry+1)%n, (g.Entry+2)%n
	if shape&shapeIrreducible != 0 && n >= 3 && g.Blocks[a] != nil && g.Blocks[c] != nil {
		g.Blocks[g.Entry].Term, g.Blocks[g.Entry].Next, g.Blocks[g.Entry].FNext = cfg.Branch, a, c
		g.Blocks[a].Term, g.Blocks[a].Next, g.Blocks[a].FNext = cfg.Branch, c, target()
		g.Blocks[c].Term, g.Blocks[c].Next = cfg.Goto, a
	} else {
		shape &^= shapeIrreducible
	}
	gk := &genKill{universe: src.intn(80), gen: make([]*bitset.Set, n), kill: make([]*bitset.Set, n)}
	randomSet := func() *bitset.Set {
		s := bitset.New(0)
		for k := src.intn(4); k > 0 && gk.universe > 0; k-- {
			s.Add(src.intn(gk.universe))
		}
		return s
	}
	if shape&shapeBoundary != 0 {
		gk.boundary = randomSet()
	}
	for i := range gk.gen {
		gk.gen[i], gk.kill[i] = randomSet(), randomSet()
	}
	return g, gk, shape
}

// graphFeatures names the structures a decoded graph exercises;
// TestDataflowMatchesReferenceRandom requires each in its sample.
var graphFeatures = []string{
	"nil holes", "unreachable blocks", "self-loops", "equal Branch arms",
	"RetBr fan-out", "empty RetTargets", "Spawn edges", "irreducible loops",
}

// features reports which of graphFeatures g has.
func features(g *cfg.Graph, shape int) map[string]bool {
	reach := reachableBlocks(g)
	f := map[string]bool{"irreducible loops": shape&shapeIrreducible != 0}
	for i, b := range g.Blocks {
		if b == nil {
			f["nil holes"] = true
			continue
		}
		if !reach[i] {
			f["unreachable blocks"] = true
		}
		for _, s := range b.Succs() {
			if s == i {
				f["self-loops"] = true
			}
		}
		switch b.Term {
		case cfg.Branch:
			f["equal Branch arms"] = f["equal Branch arms"] || b.Next == b.FNext
		case cfg.RetBr:
			f["RetBr fan-out"] = f["RetBr fan-out"] || len(b.RetTargets) > 1
			f["empty RetTargets"] = f["empty RetTargets"] || len(b.RetTargets) == 0
		case cfg.Spawn:
			f["Spawn edges"] = true
		}
	}
	return f
}

// TestDataflowMatchesReferenceRandom compares every analysis with the
// reference on 10,000 random graphs and checks that the sample really
// covers each structure the generator aims at.
func TestDataflowMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	data := make([]byte, 256)
	for i := 0; i < 10000; i++ {
		rng.Read(data)
		g, gk, shape := decodeGraph(data)
		for name, ok := range features(g, shape) {
			if ok {
				seen[name]++
			}
		}
		if err := compareWithReference(g, gk); err != nil {
			t.Fatalf("graph %d: %v\n%s", i, err, g)
		}
	}
	for _, name := range graphFeatures {
		if seen[name] < 500 {
			t.Errorf("only %d of 10000 random graphs have %s", seen[name], name)
		}
	}
	t.Logf("graphs with each structure: %v", seen)
}

// FuzzDataflow decodes fuzz bytes into a graph, block code and a
// gen/kill problem, and compares every analysis with the reference.
func FuzzDataflow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{shapeIrreducible, 5, 4, 0, 0, 3, 1, 2, 3, 2, 4})
	f.Add([]byte{shapeHoles | shapeBoundary | shapeDangling, 11, 7, 3, 2, 1})
	f.Add([]byte("\x0f the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, gk, _ := decodeGraph(data)
		if err := compareWithReference(g, gk); err != nil {
			t.Fatalf("%v\n%s", err, g)
		}
	})
}

// TestSolveAllocsIndependentOfVisits solves one gen/kill problem on two
// graphs of the same size: a chain the block-order worklist settles in
// one pass, and a loop numbered against the flow, which needs many.
// Solve's allocations must be the same for both.
func TestSolveAllocsIndependentOfVisits(t *testing.T) {
	const n = 64
	chain := &cfg.Graph{Blocks: make([]*cfg.Block, n)}
	loop := &cfg.Graph{Blocks: make([]*cfg.Block, n), Entry: n - 1}
	gk := &genKill{universe: n, gen: make([]*bitset.Set, n), kill: make([]*bitset.Set, n)}
	for i := 0; i < n; i++ {
		chain.Blocks[i] = &cfg.Block{ID: i, Term: cfg.Goto, Next: i + 1}
		loop.Blocks[i] = &cfg.Block{ID: i, Term: cfg.Goto, Next: (i + n - 1) % n}
		gk.gen[i], gk.kill[i] = bitset.Of(i), bitset.New(0)
	}
	chain.Blocks[n-1].Term = cfg.End
	p := gk.problem(Forward, Union)
	visits := 0
	transfer := p.Transfer
	p.Transfer = func(b *cfg.Block, in, out *bitset.Set) {
		visits++
		transfer(b, in, out)
	}
	count := func(g *cfg.Graph) (allocs float64, v int) {
		visits = 0
		Solve(g, p)
		v = visits
		return testing.AllocsPerRun(20, func() { Solve(g, p) }), v
	}
	chainAllocs, chainVisits := count(chain)
	loopAllocs, loopVisits := count(loop)
	if loopVisits < 4*chainVisits {
		t.Fatalf("loop took %d visits, chain %d: the loop does not exercise repeated passes", loopVisits, chainVisits)
	}
	t.Logf("chain: %d visits, %v allocs; loop: %d visits, %v allocs", chainVisits, chainAllocs, loopVisits, loopAllocs)
	if chainAllocs != loopAllocs {
		t.Fatalf("Solve allocates %v times on the chain (%d visits) but %v on the loop (%d visits)",
			chainAllocs, chainVisits, loopAllocs, loopVisits)
	}
}
