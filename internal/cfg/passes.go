package cfg

import "msc/internal/ir"

// SimplifyStats reports what a Simplify run did, for the compile
// metrics.
type SimplifyStats struct {
	// BlocksBefore/BlocksAfter count non-nil blocks at entry and exit.
	BlocksBefore int
	BlocksAfter  int
	// Iterations is the number of fixed-point rounds (including the
	// final no-change round).
	Iterations int
}

// Simplify applies code straightening, empty-node removal, and
// unreachable-state pruning to a fixed point, then renumbers the blocks
// compactly (§2.1: "code straightening and removal of empty nodes are
// applied to obtain the simplest possible graph", maximizing basic
// blocks). It returns g for chaining.
func Simplify(g *Graph) *Graph {
	SimplifyWithStats(g)
	return g
}

// SimplifyWithStats is Simplify plus pass observability.
func SimplifyWithStats(g *Graph) SimplifyStats {
	st := SimplifyStats{BlocksBefore: g.NumBlocks()}
	for {
		st.Iterations++
		changed := straighten(g)
		changed = Fold(g) || changed
		changed = removeEmpty(g) || changed
		changed = pruneUnreachable(g) || changed
		if !changed {
			break
		}
	}
	Renumber(g)
	st.BlocksAfter = g.NumBlocks()
	return st
}

// preds returns the predecessor count of every block, counting the
// program entry as having one implicit predecessor.
func preds(g *Graph) []int {
	n := make([]int, len(g.Blocks))
	if g.Entry >= 0 && g.Entry < len(n) {
		n[g.Entry]++
	}
	var succs []int
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		succs = b.AppendSuccs(succs[:0])
		for _, s := range succs {
			if s >= 0 && s < len(n) {
				n[s]++
			}
		}
	}
	return n
}

// straighten merges each block with its unique Goto successor when that
// successor has no other predecessors. A barrier block is never merged
// into its predecessor (PEs must be able to wait *before* executing the
// code that follows the barrier), but post-barrier code may be merged
// into the barrier block itself.
func straighten(g *Graph) bool {
	changed := false
	for {
		p := preds(g)
		merged := false
		for _, a := range g.Blocks {
			if a == nil || a.Term != Goto {
				continue
			}
			bID := a.Next
			b := g.Block(bID)
			if b == nil || bID == a.ID || bID == g.Entry || p[bID] != 1 || b.Barrier {
				continue
			}
			a.Code = append(a.Code, b.Code...)
			if !a.Pos.IsValid() {
				a.Pos = b.Pos
			}
			a.Term = b.Term
			a.Next = b.Next
			a.FNext = b.FNext
			a.RetTargets = b.RetTargets
			a.SpawnNext = b.SpawnNext
			if a.Label != "" && b.Label != "" {
				a.Label = a.Label + "+" + b.Label
			} else if b.Label != "" {
				a.Label = b.Label
			}
			g.Blocks[bID] = nil
			merged = true
		}
		if !merged {
			return changed
		}
		changed = true
	}
}

// removeEmpty bypasses blocks that hold no code and just jump onward.
// Barrier-wait states are semantic and never removed.
func removeEmpty(g *Graph) bool {
	// forward chases chains of empty gotos with cycle protection.
	memo := make(map[int]int)
	var forward func(id int, seen map[int]bool) int
	forward = func(id int, seen map[int]bool) int {
		if f, ok := memo[id]; ok {
			return f
		}
		b := g.Block(id)
		if b == nil || b.Term != Goto || len(b.Code) > 0 || b.Barrier || seen[id] {
			memo[id] = id
			return id
		}
		seen[id] = true
		f := forward(b.Next, seen)
		memo[id] = f
		return f
	}
	redirect := func(id int) int {
		if id < 0 {
			return id
		}
		return forward(id, make(map[int]bool))
	}

	changed := false
	apply := func(ref *int) {
		nv := redirect(*ref)
		if nv != *ref {
			*ref = nv
			changed = true
		}
	}
	apply(&g.Entry)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		switch b.Term {
		case Goto:
			apply(&b.Next)
		case Branch:
			apply(&b.Next)
			apply(&b.FNext)
		case Spawn:
			apply(&b.Next)
			apply(&b.SpawnNext)
		case RetBr:
			for i := range b.RetTargets {
				apply(&b.RetTargets[i])
			}
			b.RetTargets = dedupe(b.RetTargets)
		}
		for i := range b.Code {
			if b.Code[i].Op == ir.PushRet {
				old := int(b.Code[i].Imm)
				if nv := redirect(old); nv != old {
					b.Code[i].Imm = int64(nv)
					changed = true
				}
			}
		}
	}
	return changed
}

func dedupe(xs []int) []int {
	out := xs[:0]
	for _, x := range xs {
		dup := false
		for _, y := range out {
			if y == x {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// pruneUnreachable removes blocks not reachable from the entry state
// (spawn children and return sites count as reachable).
func pruneUnreachable(g *Graph) bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{g.Entry}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || id >= len(seen) || seen[id] || g.Blocks[id] == nil {
			continue
		}
		seen[id] = true
		stack = g.Blocks[id].AppendSuccs(stack)
	}
	changed := false
	for i, b := range g.Blocks {
		if b != nil && !seen[i] {
			g.Blocks[i] = nil
			changed = true
		}
	}
	return changed
}

// Renumber compacts block IDs to 0..n-1 (in the existing order) and
// rewrites every reference, including PushRet return-site tokens.
func Renumber(g *Graph) {
	remap := make(map[int]int)
	var live []*Block
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		remap[b.ID] = len(live)
		live = append(live, b)
	}
	ref := func(id int) int {
		if id < 0 {
			return id
		}
		return remap[id]
	}
	for _, b := range live {
		b.ID = remap[b.ID]
		b.Next = ref(b.Next)
		b.FNext = ref(b.FNext)
		b.SpawnNext = ref(b.SpawnNext)
		for i := range b.RetTargets {
			b.RetTargets[i] = ref(b.RetTargets[i])
		}
		for i := range b.Code {
			if b.Code[i].Op == ir.PushRet {
				b.Code[i].Imm = int64(ref(int(b.Code[i].Imm)))
			}
		}
	}
	g.Entry = ref(g.Entry)
	g.Blocks = live
}
