package msc

import (
	"fmt"
	"slices"

	"msc/internal/bitset"
)

// Check validates the structural invariants of a converted automaton:
//
//   - IDs are dense and the set index is consistent;
//   - every transition target exists;
//   - in paper barrier mode (§2.6) every meta state is either entirely
//     barrier states (a release state) or contains none;
//   - compressed automata have at most one exit arc per meta state
//     (transitions into compressed regions are unconditional, §2.5);
//   - the successor sets recomputed from the MIMD graph are covered by
//     the recorded transitions (dispatch closure).
func Check(a *Automaton) error {
	if a.State(a.Start) == nil {
		return fmt.Errorf("msc: start state %d missing", a.Start)
	}
	for i, s := range a.States {
		if s.ID != i {
			return fmt.Errorf("msc: state %d has ID %d", i, s.ID)
		}
		if got := a.Find(s.Set); got != s && !a.Opt.MergeSubsets {
			return fmt.Errorf("msc: set index inconsistent for ms%d %s", i, s.Set)
		}
		if s.Set.Empty() {
			return fmt.Errorf("msc: ms%d has empty MIMD state set", i)
		}
		for _, to := range s.Trans {
			if a.State(to) == nil {
				return fmt.Errorf("msc: ms%d has dangling transition to %d", i, to)
			}
		}
		if !a.Opt.BarrierExact && s.Set.Intersects(a.Barriers) && !s.Set.Subset(a.Barriers) {
			return fmt.Errorf("msc: ms%d %s mixes barrier and non-barrier states in paper mode", i, s.Set)
		}
		if a.Opt.Compress {
			// Unconditional except for barrier-release arcs (§3.2.4): at
			// most one arc may lead to a state holding non-barrier work.
			normal := 0
			for _, to := range s.Trans {
				if !a.States[to].Set.Subset(a.Barriers) {
					normal++
				}
			}
			if normal > 1 {
				return fmt.Errorf("msc: compressed ms%d has %d non-release exit arcs, want <= 1", i, normal)
			}
		}
	}

	// Dispatch closure: recompute each state's successor aggregates and
	// confirm each filtered target is a recorded transition. With
	// MergeSubsets, a superset target is acceptable.
	//
	// Without MergeSubsets the loop above has proved a.Find(t.Set) == t
	// for every state t, so Find is one-to-one: a transition's set
	// equals the target exactly when Find(target) is that transition's
	// state. One index probe and one mark test then replace a set
	// comparison per arc. MergeSubsets skips that proof and accepts
	// supersets, so it keeps the scan.
	e := a.newExpander() // the check's own, so its sets can be recycled
	n := len(a.G.Blocks)
	waits, filtered := bitset.New(n), bitset.New(n)
	onTrans := make([]int, len(a.States)) // onTrans[t] == s.ID+1: s has an arc to t
	for _, s := range a.States {
		for _, to := range s.Trans {
			onTrans[to] = s.ID + 1
		}
		raws, _ := e.product(s.Set)
		for _, raw := range raws {
			if raw.Empty() {
				if !s.Exit && !a.Opt.MergeSubsets {
					return fmt.Errorf("msc: ms%d can complete but has no exit flag", s.ID)
				}
				continue
			}
			// §2.6 filter: an all-barrier aggregate releases the
			// barrier; otherwise its barrier waits are removed (those
			// PEs wait while the rest proceed).
			target := raw
			if !a.Opt.BarrierExact {
				waits.IntersectOf(raw, a.Barriers)
				if !waits.Equal(raw) {
					filtered.MinusOf(raw, waits)
					target = filtered
				}
			}
			var covered bool
			if a.Opt.MergeSubsets {
				covered = slices.ContainsFunc(s.Trans, func(to int) bool { return target.Subset(a.States[to].Set) })
			} else {
				t := a.Find(target)
				covered = t != nil && onTrans[t.ID] == s.ID+1
			}
			if !covered {
				return fmt.Errorf("msc: ms%d %s has uncovered successor aggregate %s (target %s)",
					s.ID, s.Set, raw, target)
			}
		}
		for _, raw := range raws {
			e.put(raw)
		}
	}
	return nil
}
