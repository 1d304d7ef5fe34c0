package opt

import (
	"msc/internal/analysis"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// materializeConsts rewrites loads of provably-constant slots into
// PushC, using the must-constant fixpoint plus an in-block replay so
// block-local stores count too. Only integer constants exist in the
// lattice (float stores are never tracked), and excluded slots —
// router-touched, or mono slots stored outside the prologue — read as
// unknown, so a materialized constant is one every PE agrees on at
// that point on every path.
func materializeConsts(g *cfg.Graph, consts *analysis.ConstResult) int {
	n := 0
	env := consts.EnvAt(cfg.None)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		env.Enter(b.ID)
		for i, in := range b.Code {
			if (in.Op == ir.LdLocal || in.Op == ir.LdMono) && in.Ty != ir.Float {
				if v := env.Slot(int(in.Imm)); v.Known {
					b.Code[i] = ir.Instr{Op: ir.PushC, Imm: v.Val, Ty: ir.Int, Sym: in.Sym, Pos: in.Pos}
					n++
				}
			}
			// Step the original instruction: the replacement pushes the
			// identical value, so the replay state stays faithful.
			env.Step(in)
		}
	}
	return n
}

// foldBranches rewrites Branch terminators whose condition is decided
// at compile time into Goto to the taken arm, discarding the condition
// with a Pop. Branches whose arms coincide fold unconditionally. The
// Simplify feedback in the driver then prunes the disconnected arm and
// re-straightens, which is where the meta-state reduction comes from:
// a pruned MIMD state can never occupy an aggregate again.
//
// consts may be the facts materializeConsts used on the graph as it
// was before that pass: they are exactly the facts of the rewritten
// graph. A materialized PushC pushes the value the replay of the load
// already pushed, at every step of the fixpoint (values at a point
// only descend, and the final one is that constant), and neither pass
// touches a store or a router op, so the excluded slots are unchanged.
func foldBranches(g *cfg.Graph, consts *analysis.ConstResult) int {
	n := 0
	env := consts.EnvAt(cfg.None)
	for _, b := range g.Blocks {
		if b == nil || b.Term != cfg.Branch {
			continue
		}
		take := cfg.None
		if b.Next == b.FNext {
			take = b.Next
		} else {
			env.Enter(b.ID)
			for _, in := range b.Code {
				env.Step(in)
			}
			if c := env.Top(); c.Known {
				if c.Val != 0 {
					take = b.Next
				} else {
					take = b.FNext
				}
			}
		}
		if take == cfg.None {
			continue
		}
		b.Term = cfg.Goto
		b.Next = take
		b.FNext = cfg.None
		// The condition value is still on the stack; a Goto block must be
		// stack-neutral. Cleanup erases the whole condition chain when it
		// is pure.
		b.Code = append(b.Code, ir.Instr{Op: ir.Pop, Imm: 1, Pos: b.Pos})
		n++
	}
	return n
}
