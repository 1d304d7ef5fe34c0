package analysis

import (
	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// DefSite is one scalar store: a definition point of a memory slot.
type DefSite struct {
	Block int // block ID
	Index int // instruction index within the block
	Slot  int
	Pos   ir.Pos
}

// ReachResult is the classic reaching-definitions solution: bit i of a
// block's In/Out set is set iff Sites[i] may reach that program point.
type ReachResult struct {
	Sites []DefSite
	*Result
}

// ReachingDefs solves forward may reaching definitions over every
// scalar store (StLocal/StMono), compiler temporaries included.
func ReachingDefs(g *cfg.Graph) *ReachResult {
	var sites []DefSite
	defsOf := make(map[int][]int) // slot -> site ids defining it
	lastIn := make(map[int][]int) // block -> site ids of last defs per slot
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		last := make(map[int]int) // slot -> site id
		for i, in := range b.Code {
			if in.Op == ir.StLocal || in.Op == ir.StMono {
				id := len(sites)
				slot := int(in.Imm)
				sites = append(sites, DefSite{Block: b.ID, Index: i, Slot: slot, Pos: in.Pos})
				defsOf[slot] = append(defsOf[slot], id)
				last[slot] = id
			}
		}
		for _, id := range last {
			lastIn[b.ID] = append(lastIn[b.ID], id)
		}
	}

	gen := make(map[int]*bitset.Set)
	kill := make(map[int]*bitset.Set)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		g1 := bitset.New(len(sites))
		k1 := bitset.New(len(sites))
		for _, id := range lastIn[b.ID] {
			g1.Add(id)
			for _, other := range defsOf[sites[id].Slot] {
				if other != id {
					k1.Add(other)
				}
			}
		}
		gen[b.ID] = g1
		kill[b.ID] = k1
	}

	res := Solve(g, Problem{
		Dir:      Forward,
		Meet:     Union,
		Universe: len(sites),
		Transfer: func(b *cfg.Block, in, out *bitset.Set) {
			out.MinusOf(in, kill[b.ID])
			out.UnionWith(gen[b.ID])
		},
	})
	return &ReachResult{Sites: sites, Result: res}
}
