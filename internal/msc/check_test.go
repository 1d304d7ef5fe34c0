package msc

import (
	"slices"
	"strings"
	"testing"
)

// checkMutation breaks one invariant of a converted automaton. Check
// must reject the result with the message it gives that invariant.
type checkMutation struct {
	name  string
	want  string
	apply func(t *testing.T, a *Automaton)
}

// firstArc returns the first state with a transition.
func firstArc(t *testing.T, a *Automaton) *MetaState {
	t.Helper()
	for _, s := range a.States {
		if len(s.Trans) > 0 {
			return s
		}
	}
	t.Fatalf("automaton has no transitions\n%s", a)
	return nil
}

var checkMutations = []checkMutation{
	{"drop a transition", "has uncovered successor aggregate", func(t *testing.T, a *Automaton) {
		s := firstArc(t, a)
		s.Trans = s.Trans[1:]
	}},
	{"retarget a transition", "has uncovered successor aggregate", func(t *testing.T, a *Automaton) {
		// The new target is not already an arc and does not cover the
		// old one, so not even superset dispatch accepts it.
		s := firstArc(t, a)
		old := a.States[s.Trans[0]].Set
		for _, c := range a.States {
			if !slices.Contains(s.Trans, c.ID) && !old.Subset(c.Set) {
				s.Trans[0] = c.ID
				return
			}
		}
		t.Fatalf("no state to retarget ms%d's first arc to\n%s", s.ID, a)
	}},
	{"clear an exit flag", "can complete but has no exit flag", func(t *testing.T, a *Automaton) {
		for _, s := range a.States {
			if s.Exit {
				s.Exit = false
				return
			}
		}
		t.Fatalf("automaton has no exit state\n%s", a)
	}},
	{"give two states equal sets", "set index inconsistent", func(t *testing.T, a *Automaton) {
		a.States[1].Set = a.States[0].Set.Clone()
	}},
}

// TestCheckRejectsMutations proves that Check, whose dispatch-closure
// pass looks targets up in the hash-consed index, still rejects broken
// automata: Figure 2, the paper-mode barrier automaton of Figure 6, and
// Figure 5's compressed, subset-merged automaton. Under MergeSubsets
// Check skips exit flags and the set-index proof (a merged superset
// emulates the states it absorbed), so only the transition mutations
// apply there.
func TestCheckRejectsMutations(t *testing.T) {
	automata := []struct {
		name string
		src  string
		opt  Options
	}{
		{"figure2", listing4, DefaultOptions(false)},
		{"figure6-barrier", listing3, DefaultOptions(false)},
		{"figure5-merged", listing4, DefaultOptions(true)},
	}
	for _, au := range automata {
		for _, m := range checkMutations {
			if au.opt.MergeSubsets && (m.want == "can complete but has no exit flag" || m.want == "set index inconsistent") {
				continue
			}
			t.Run(au.name+"/"+m.name, func(t *testing.T) {
				_, a := convert(t, au.src, au.opt) // convert runs Check on the intact automaton
				m.apply(t, a)
				err := Check(a)
				if err == nil || !strings.Contains(err.Error(), m.want) {
					t.Fatalf("Check after %q = %v, want an error containing %q\n%s", m.name, err, m.want, a)
				}
			})
		}
	}
}

// TestCheckEveryArcIsNeeded drops each arc of an uncompressed automaton
// in turn: every arc there is the only one dispatching some successor
// aggregate, so Check must reject each drop.
func TestCheckEveryArcIsNeeded(t *testing.T) {
	_, a := convert(t, SeqLoopsSrc(3), DefaultOptions(false))
	drops := 0
	for _, s := range a.States {
		saved := s.Trans
		for j := range saved {
			s.Trans = slices.Delete(slices.Clone(saved), j, j+1)
			if err := Check(a); err == nil || !strings.Contains(err.Error(), "has uncovered successor aggregate") {
				t.Fatalf("Check without ms%d's arc to ms%d = %v, want an uncovered aggregate", s.ID, saved[j], err)
			}
			drops++
		}
		s.Trans = saved
	}
	if drops < 100 {
		t.Fatalf("only %d arcs dropped; want a non-trivial automaton", drops)
	}
	if err := Check(a); err != nil {
		t.Fatalf("restored automaton fails Check: %v", err)
	}
}

// TestCheckAcceptsSupersetUnderMergeSubsets: in Figure 5 the start
// state's only successor aggregate {B,D} was merged into {B,D,F}, so
// the start's one arc covers it by superset alone. Check accepts that
// under MergeSubsets and rejects it once exact dispatch is demanded.
func TestCheckAcceptsSupersetUnderMergeSubsets(t *testing.T) {
	_, a := convert(t, listing4, DefaultOptions(true))
	start := a.State(a.Start)
	raws := a.RawSuccessors(start.Set)
	if len(raws) != 1 || len(start.Trans) != 1 {
		t.Fatalf("start: raw successors %v, arcs %v; want one of each\n%s", raws, start.Trans, a)
	}
	if to := a.States[start.Trans[0]].Set; to.Equal(raws[0]) || !raws[0].Subset(to) {
		t.Fatalf("start's arc to %s does not strictly cover its successor %s", to, raws[0])
	}
	a.Opt.MergeSubsets = false
	if err := Check(a); err == nil || !strings.Contains(err.Error(), "has uncovered successor aggregate") {
		t.Fatalf("Check with exact dispatch = %v, want an uncovered aggregate", err)
	}
}
