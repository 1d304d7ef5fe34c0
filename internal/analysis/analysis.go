package analysis

import (
	"msc/internal/cfg"
	"msc/internal/msc"
)

// AnalyzeGraph runs every CFG-level check over a MIMD state graph and
// returns the sorted, deduplicated diagnostics: use-before-init, dead
// stores, unreachable code, and constant branch conditions.
//
// The graph may be raw (straight out of cfg.Build) or simplified; raw
// graphs give the checks their best view of source structure —
// Simplify prunes exactly the unreachable blocks the dead-code check
// wants to report.
func AnalyzeGraph(g *cfg.Graph) []Diagnostic {
	vars := CollectVars(g)
	inits := InitAnalysis(g, vars)
	live := Liveness(g, vars)
	consts := ConstFacts(g, vars)
	reach := reachableBlocks(g)

	var diags []Diagnostic
	diags = append(diags, CheckUninitialized(g, vars, inits, reach)...)
	diags = append(diags, CheckDeadStores(g, vars, live)...)
	diags = append(diags, CheckUnreachableCode(g, reach)...)
	diags = append(diags, CheckConstConditions(g, consts, reach)...)
	diags = append(diags, CheckDivByConstZero(g, consts, reach)...)
	return SortDiagnostics(diags)
}

// Analyze runs the full suite: the CFG-level checks over g plus the
// whole-program automaton checks (barrier deadlock, termination) when
// a is non-nil. g should be the graph the diagnostics ought to be
// positioned against (typically the raw build); a may have been
// converted from a simplified clone of it.
func Analyze(g *cfg.Graph, a *msc.Automaton) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, AnalyzeGraph(g)...)
	if a != nil {
		diags = append(diags, CheckAutomaton(a)...)
	}
	return SortDiagnostics(diags)
}
