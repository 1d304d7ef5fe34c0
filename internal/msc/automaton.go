// Package msc implements Meta-State Conversion (Dietz, TR-EE 93-6): it
// converts a MIMD state graph into a single finite automaton over meta
// states — aggregate sets of simultaneously occupied MIMD states — so
// that the program can execute on SIMD hardware with one program
// counter. The package provides the base conversion algorithm (§2.3),
// MIMD-state time splitting (§2.4), meta-state compression (§2.5), and
// barrier-synchronization state filtering (§2.6).
package msc

import (
	"fmt"
	"strings"
	"sync"

	"msc/internal/bitset"
	"msc/internal/cfg"
)

// MetaState is one state of the meta-state automaton: the set of MIMD
// states that may be simultaneously occupied, plus the transitions out.
//
// Each transition's dispatch key is exactly the destination meta state's
// Set: at run time the aggregate program counter (the §3.2.3 "apc"
// global-or) is reduced by the §3.2.4 barrier rule — if it is not
// contained in the set of all barrier states, the barrier states are
// subtracted — and the result selects the destination whose Set matches.
type MetaState struct {
	ID  int
	Set *bitset.Set
	// Trans lists the destination meta state IDs, sorted by their sets'
	// canonical keys and deduplicated.
	Trans []int
	// Exit reports that execution may complete here (every PE reaches a
	// no-exit MIMD state, §3.2.1).
	Exit bool
}

// Automaton is the meta-state automaton for a program.
type Automaton struct {
	// G is the MIMD state graph the automaton was built from. When time
	// splitting ran, this is the split copy, not the graph passed in.
	G *cfg.Graph
	// States holds the meta states; States[i].ID == i. Start is the meta
	// state formed from the set of MIMD start states (§2.3).
	States []*MetaState
	Start  int
	// Barriers is the set of barrier-wait MIMD states (§2.6).
	Barriers *bitset.Set
	// Opt records the options the conversion ran with.
	Opt Options
	// Splits counts MIMD states split by the §2.4 timing heuristic;
	// Restarts counts conversion restarts those splits forced.
	Splits   int
	Restarts int
	// OverApprox reports that some contribution was over-approximated
	// (a return branch wider than Options.MaxRetSubsets used the
	// all-targets rule), so runtime aggregates may be strict subsets of
	// meta-state sets and dispatch must accept covering supersets.
	OverApprox bool

	// index is the hash-consed set→ID index built by conversion (safe
	// for concurrent read-only lookups); memo carries the per-block
	// contribution memo so post-hoc queries (RawSuccessors, Check) reuse
	// the conversion's work.
	index *internTable
	memo  *contribMemo

	expMu sync.Mutex
	exp   *expander
}

// State returns the meta state with the given ID, or nil.
func (a *Automaton) State(id int) *MetaState {
	if id < 0 || id >= len(a.States) {
		return nil
	}
	return a.States[id]
}

// Find returns the meta state with exactly the given MIMD state set, or
// nil.
func (a *Automaton) Find(set *bitset.Set) *MetaState {
	if a.index == nil {
		return nil
	}
	if id, ok := a.index.lookup(set.Hash(), set, a.States); ok {
		return a.States[id]
	}
	return nil
}

// Lookup dispatches an aggregate program counter to the next meta state,
// applying the §3.2.4 barrier rule: if the aggregate is contained in the
// set of all barrier states the transition proceeds normally; otherwise
// the barrier states are subtracted first (those PEs wait). An empty
// aggregate means the program has completed: Lookup returns (nil, nil).
func (a *Automaton) Lookup(apc *bitset.Set) (*MetaState, error) {
	if apc.Empty() {
		return nil, nil
	}
	key := apc
	if !a.Opt.BarrierExact && !apc.Subset(a.Barriers) {
		key = apc.Minus(a.Barriers)
		if key.Empty() {
			return nil, fmt.Errorf("msc: aggregate %s empties after barrier subtraction", apc)
		}
	}
	ms := a.Find(key)
	if ms == nil && (a.Opt.Compress || a.Opt.MergeSubsets || a.OverApprox) {
		// Compressed/merged automata over-approximate occupancy: the
		// realizable aggregate may be a strict subset of the meta state
		// that covers it ("the case of both successors can always
		// emulate either successor", §2.5). Dispatch to the smallest
		// covering state.
		for _, s := range a.States {
			if key.Subset(s.Set) && (ms == nil || s.Set.Len() < ms.Set.Len()) {
				ms = s
			}
		}
	}
	if ms == nil {
		return nil, fmt.Errorf("msc: no meta state for aggregate %s (dispatch key %s)", apc, key)
	}
	return ms, nil
}

// RawSuccessors enumerates the distinct aggregate successor sets of a
// meta-state set exactly as conversion did (§2.3 enumeration under the
// automaton's own options) — before the §2.6 barrier filtering is
// applied. An empty aggregate in the result means every member can
// terminate there. Whole-program checks (internal/analysis) use this
// to reason about which successors contain barrier waiters, which the
// filtered transition relation hides.
func (a *Automaton) RawSuccessors(set *bitset.Set) []*bitset.Set {
	a.expMu.Lock()
	defer a.expMu.Unlock()
	if a.exp == nil {
		a.exp = a.newExpander()
	}
	return a.exp.expand(set).raw
}

// newExpander returns an expander over the automaton's graph and
// options, reusing the conversion's contribution memo when the
// automaton has one (an automaton decoded from an artifact does not).
func (a *Automaton) newExpander() *expander {
	memo := a.memo
	if memo == nil {
		memo = &contribMemo{}
		memo.update(a.G, a.Barriers, a.Opt)
	}
	return newExpander(a.G, a.Barriers, a.Opt, memo, nil)
}

// Reindex rebuilds the hash-consed set→ID index from States. Conversion
// builds the index as a side effect; an automaton deserialized by the
// artifact codec arrives without one and calls Reindex so Find (and
// through it Lookup, the engines' dispatch path) works identically on a
// cache hit. It fails if two states carry equal sets — that is a corrupt
// artifact, not a valid automaton.
func (a *Automaton) Reindex() error {
	t := &internTable{}
	for _, s := range a.States {
		h := s.Set.Hash()
		if id, ok := t.lookup(h, s.Set, a.States); ok {
			return fmt.Errorf("msc: duplicate meta-state set %s (states %d and %d)", s.Set, id, s.ID)
		}
		t.insert(h, s.ID)
	}
	a.index = t
	return nil
}

// NumStates returns the number of meta states.
func (a *Automaton) NumStates() int { return len(a.States) }

// NumTransitions returns the total number of transition arcs.
func (a *Automaton) NumTransitions() int {
	n := 0
	for _, s := range a.States {
		n += len(s.Trans)
	}
	return n
}

// Succs returns the destination meta states of s.
func (a *Automaton) Succs(s *MetaState) []*MetaState {
	out := make([]*MetaState, len(s.Trans))
	for i, to := range s.Trans {
		out[i] = a.States[to]
	}
	return out
}

// MaxWidth returns the widest meta state (most MIMD states merged); the
// §2.5 compression trade-off makes meta states wider in exchange for
// fewer of them.
func (a *Automaton) MaxWidth() int {
	w := 0
	for _, s := range a.States {
		if n := s.Set.Len(); n > w {
			w = n
		}
	}
	return w
}

// String renders the automaton as readable text.
func (a *Automaton) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "start: ms%d %s\n", a.Start, a.States[a.Start].Set)
	for _, s := range a.States {
		fmt.Fprintf(&sb, "ms%d %s:\n", s.ID, s.Set)
		for _, to := range s.Trans {
			fmt.Fprintf(&sb, "    -> ms%d %s\n", to, a.States[to].Set)
		}
		if s.Exit {
			sb.WriteString("    -> exit\n")
		}
	}
	return sb.String()
}

// Dot renders the automaton in Graphviz format (Figures 2, 5, 6 style):
// DotHeat with no shares, so every node is unfilled.
func (a *Automaton) Dot(title string) string { return a.DotHeat(title, nil) }

// DotHeat renders the automaton in Graphviz format as a hot-spot
// heatmap: share[id] in [0,1] is each meta state's fraction of some
// execution quantity (typically its cycle share from a profiled run),
// drawn as red fill saturation with the percentage in the node label.
// States missing from share (or out of range) render unfilled.
func (a *Automaton) DotHeat(title string, share []float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n  node [shape=ellipse];\n", title)
	for _, s := range a.States {
		label := strings.Trim(s.Set.String(), "{}")
		if s.ID < len(share) && share[s.ID] >= 0 {
			f := share[s.ID]
			if f > 1 {
				f = 1
			}
			// HSV red ramp: saturation tracks the share, so hot states
			// are vivid and cold states near-white.
			fmt.Fprintf(&sb, "  m%d [label=\"%s\\n%.1f%%\" style=filled fillcolor=\"0.000 %.3f 1.000\"];\n",
				s.ID, label, f*100, f)
		} else {
			fmt.Fprintf(&sb, "  m%d [label=\"%s\"];\n", s.ID, label)
		}
	}
	anyExit := false
	for _, s := range a.States {
		for _, to := range s.Trans {
			fmt.Fprintf(&sb, "  m%d -> m%d;\n", s.ID, to)
		}
		if s.Exit {
			fmt.Fprintf(&sb, "  m%d -> exit;\n", s.ID)
			anyExit = true
		}
	}
	fmt.Fprintf(&sb, "  start [shape=point];\n  start -> m%d;\n", a.Start)
	if anyExit {
		sb.WriteString("  exit [shape=doublecircle label=\"\"];\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// sortSuccs orders a transition list deterministically by the
// destination sets' canonical keys and removes duplicates. Compare
// reproduces the Key() string order without materializing keys, and the
// transition lists are short, so an insertion sort avoids the
// sort.Slice closure allocations on the conversion hot path.
func (a *Automaton) sortSuccs(ts []int) []int {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && a.States[ts[j]].Set.Compare(a.States[ts[j-1]].Set) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	out := ts[:0]
	for i, t := range ts {
		if i > 0 && t == out[len(out)-1] {
			continue
		}
		out = append(out, t)
	}
	return out
}
