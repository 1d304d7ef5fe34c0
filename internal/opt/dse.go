package opt

import (
	"msc/internal/analysis"
	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// optLiveness solves the transform-grade liveness problem. It is
// stricter than analysis.Liveness, whose transfer may ignore indexed
// accesses because the dead-store *check* only reports named scalars:
// a transform that deletes stores must also respect
//
//   - indexed reads: LdIndex with base b reads mem[b+i] for a dynamic
//     i, so it keeps every slot in [b, Words) alive;
//   - indexed writes: StIndex's target is dynamic, so it kills
//     nothing;
//   - mono slots: a divergent PE's broadcast store/load pair need not
//     be connected by a CFG path, so mono slots are permanently live;
//   - router slots: another PE can read them at any time (boundary,
//     as in analysis.Liveness).
func optLiveness(g *cfg.Graph, vars *analysis.Vars) *analysis.Result {
	boundary := vars.ExitLive.Union(vars.Remote)
	for s := 0; s < g.MonoSlots; s++ {
		boundary.Add(s)
	}
	return analysis.Solve(g, analysis.Problem{
		Dir:      analysis.Backward,
		Meet:     analysis.Union,
		Universe: g.Words,
		Boundary: boundary,
		Transfer: func(b *cfg.Block, out, live *bitset.Set) {
			live.CopyFrom(out)
			for i := len(b.Code) - 1; i >= 0; i-- {
				stepLive(g, vars, b.Code[i], live)
			}
		},
	})
}

// stepLive applies one instruction's (backward) liveness effect. The
// in-block replay in elimDeadStores must use exactly this function so
// the per-instruction facts agree with the fixpoint.
func stepLive(g *cfg.Graph, vars *analysis.Vars, in ir.Instr, live *bitset.Set) {
	slot := int(in.Imm)
	switch in.Op {
	case ir.StLocal:
		if !vars.Remote.Has(slot) && slot >= g.MonoSlots {
			live.Remove(slot)
		}
	case ir.StMono:
		// Broadcast store: never a kill (a divergent PE may observe the
		// old value at a CFG point not connected to this one).
	case ir.LdLocal, ir.LdMono, ir.LdRemote, ir.StRemote:
		live.Add(slot)
	case ir.LdIndex:
		for s := slot; s < g.Words; s++ {
			live.Add(s)
		}
	case ir.StIndex:
		// Dynamic target: cannot kill anything.
	}
}

// elimDeadStores replaces stores no path can observe with Pop(1),
// preserving the stack shape; cleanup then erases the orphaned value
// chain. Only private, non-router StLocal stores are candidates — the
// mono and remote cases are unobservable to per-path liveness (see
// optLiveness). Cascades are handled in one sweep: an overwritten
// store killed by a later (also dead) store stays dead after both are
// removed, because removal never introduces a read.
func elimDeadStores(g *cfg.Graph, vars *analysis.Vars) int {
	live := optLiveness(g, vars)
	n := 0
	cur := bitset.New(g.Words)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		cur.CopyFrom(live.Out[b.ID])
		for i := len(b.Code) - 1; i >= 0; i-- {
			in := b.Code[i]
			slot := int(in.Imm)
			if in.Op == ir.StLocal && slot >= g.MonoSlots &&
				!vars.Remote.Has(slot) && !cur.Has(slot) {
				b.Code[i] = ir.Instr{Op: ir.Pop, Imm: 1, Pos: in.Pos}
				n++
			}
			// Replay the ORIGINAL instruction: the removed store's kill
			// still applies (see the cascade note above).
			stepLive(g, vars, in, cur)
		}
	}
	return n
}
