// Package opt is the dataflow-driven optimizer over the MIMD state
// graph: it turns the facts internal/analysis computes for diagnostics
// into transformations. Every pass preserves the observable semantics
// of all three execution engines bit for bit — the differential gate
// in the root package proves it over the whole example corpus — while
// shrinking straight-line code and pruning statically-dead control
// flow, which shrinks the meta-state automaton the converter builds.
//
// The passes, in the order one round runs them:
//
//   - constant materialization: loads of slots the must-constant
//     fixpoint (analysis.ConstFacts) proves constant become PushC,
//     feeding the cfg.Fold peepholes;
//   - branch folding: Branch terminators whose condition the constant
//     replay decides become Goto to the taken arm (the dead arm is
//     pruned by cfg.Simplify);
//   - copy propagation: loads of a slot provably equal to another
//     private slot are redirected to the copy source, making the
//     intermediate stores eligible for dead-store elimination;
//   - dead-store elimination: stores no path can observe (per an
//     array- and router-aware liveness) become Pop(1);
//   - cleanup: pure-producer/Pop peepholes erase the computation
//     chains the other passes orphaned;
//   - cfg.Simplify: straightening, folding, and unreachable pruning
//     feed the next round's analyses.
//
// Meta-state caveat: shrinking and merging blocks usually shrinks the
// converted automaton, but conversion is alignment-sensitive — deleting
// a reachable block shortens one path's generation count, and two
// divergent arms that used to reconverge in the same generation may
// stop doing so. On rare programs that costs a meta state or two even
// though every block got smaller. The differential gate therefore
// requires fewer-or-equal meta states on the committed corpus and
// bounds the drift on generated programs.
//
// Level 1 runs one round; level 2 iterates rounds (copy propagation
// included) to a fixed point. Under Options.Verify — and always in
// -race builds — cfg.VerifyAll runs after every pass, so a pass that
// corrupts the graph fails immediately instead of miscompiling
// downstream.
package opt

import (
	"fmt"

	"msc/internal/analysis"
	"msc/internal/cfg"
)

// Options selects the optimization level and checking strictness.
type Options struct {
	// Level is the optimization level: 0 does nothing, 1 runs one round
	// of every pass, 2 iterates rounds to a fixed point.
	Level int
	// Verify runs cfg.VerifyAll after every pass (always on in -race
	// builds regardless of this flag).
	Verify bool
}

// Stats reports what a Run did, per rewrite kind.
type Stats struct {
	// ConstFolds counts loads materialized into PushC constants.
	ConstFolds int
	// BranchesPruned counts Branch terminators folded to Goto (their
	// dead arm is pruned by the Simplify feedback).
	BranchesPruned int
	// DeadStores counts stores eliminated.
	DeadStores int
	// CopiesPropagated counts loads redirected to a copy source.
	CopiesPropagated int
	// Rounds counts fixed-point rounds run (including the final
	// no-change round at level 2).
	Rounds int
}

// Changed reports whether any pass rewrote anything.
func (s Stats) Changed() bool {
	return s.ConstFolds+s.BranchesPruned+s.DeadStores+s.CopiesPropagated > 0
}

// maxRounds caps the level-2 fixed-point iteration. Each productive
// round strictly removes instructions or blocks, so the cap is a
// backstop against a pass oscillation bug, not a tuning knob.
const maxRounds = 16

// Run optimizes g in place and reports the rewrite counts. The graph
// must already satisfy cfg.Verify (the pipeline runs it after
// Simplify); Run keeps cfg.VerifyAll holding between passes and
// returns an error naming the offending pass if a transform ever
// breaks it.
func Run(g *cfg.Graph, o Options) (Stats, error) {
	var st Stats
	if o.Level <= 0 {
		return st, nil
	}
	check := func(pass string) error {
		if !o.Verify && !raceEnabled {
			return nil
		}
		if err := cfg.VerifyAll(g); err != nil {
			return fmt.Errorf("opt: graph corrupt after %s: %w", pass, err)
		}
		return nil
	}

	rounds := 1
	if o.Level >= 2 {
		rounds = maxRounds
	}
	for r := 0; r < rounds; r++ {
		st.Rounds++
		before := st

		// One variable scan and one constant fixpoint serve the whole
		// round. The passes read only the router and exit-live slots
		// of vars, which no pass changes, and consts stays exact across
		// materialization (see foldBranches).
		vars := analysis.CollectVars(g)
		consts := analysis.ConstFacts(g, vars)

		n := materializeConsts(g, consts)
		st.ConstFolds += n
		if err := check("const-materialize"); err != nil {
			return st, err
		}

		n = foldBranches(g, consts)
		st.BranchesPruned += n
		if err := check("branch-fold"); err != nil {
			return st, err
		}

		if o.Level >= 2 {
			n = propagateCopies(g, vars)
			st.CopiesPropagated += n
			if err := check("copy-propagate"); err != nil {
				return st, err
			}
		}

		n = elimDeadStores(g, vars)
		st.DeadStores += n
		if err := check("dead-store-elim"); err != nil {
			return st, err
		}

		cleaned := cleanup(g)
		if err := check("cleanup"); err != nil {
			return st, err
		}

		changed := st != before || cleaned
		if changed {
			// Feed the rewrites back into the block-level simplifier: it
			// folds the constant chains materialization exposed, prunes the
			// arms branch folding disconnected, and re-straightens — giving
			// the next round's analyses a smaller, more precise graph.
			cfg.Simplify(g)
			if err := check("simplify"); err != nil {
				return st, err
			}
		}
		if !changed {
			break
		}
	}
	return st, nil
}
