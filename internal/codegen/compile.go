// Package codegen compiles a meta-state automaton into an executable
// SIMD program (§3): each meta state becomes a sequence of pc-guarded
// slots (the Listing 5 `if (pc & BIT(n))` blocks), block terminators
// become pc updates (JumpF and friends), and the multiway transitions
// become global-or dispatches, optionally through customized hash
// functions ([Die92a]) and optionally with common subexpression
// induction ([Die92]) applied to each meta state's body.
package codegen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/csi"
	"msc/internal/hashgen"
	"msc/internal/msc"
	"msc/internal/mscerr"
	"msc/internal/obs"
	"msc/internal/simd"
)

// Options selects the §3 encoding optimizations.
type Options struct {
	// Hash attaches customized hash functions to multiway branches so
	// they dispatch through dense jump tables (§3.2.3, [Die92a]).
	// Requires the MIMD pc domain to fit 64 states; wider programs fall
	// back to map dispatch per state.
	Hash bool
	// CSI applies common subexpression induction to each meta state
	// body, factoring operations shared by multiple threads into single
	// broadcast slots (§3.1, [Die92]).
	CSI bool
	// MaxCSICandidates bounds the total merge candidates the CSI
	// permutation search may examine per meta state (0 = unlimited).
	// Exceeding it returns an *mscerr.BudgetError so callers can fall
	// back to the linear schedule deliberately.
	MaxCSICandidates int64
	// Metrics, when non-nil, receives coding counters: CSI cycles and
	// slots saved, hash-search candidates tried, hash tables built, and
	// total dispatch entries.
	Metrics *obs.Recorder
}

// Compile lowers an automaton to a SIMD program.
//
// The program shares sets instead of copying them: each MetaCode.Set is
// its automaton state's own set, each DispatchEntry.Key is its target
// state's set, every singleton guard is one set per MIMD state, and
// switches with identical transition lists share one HashFn. Nothing
// downstream writes them (see simd.MetaCode).
func Compile(a *msc.Automaton, opt Options) (*simd.Program, error) {
	p := &simd.Program{
		Start:            a.Start,
		Words:            a.G.Words,
		NStates:          len(a.G.Blocks),
		Barriers:         a.Barriers.Clone(),
		SupersetDispatch: a.Opt.Compress || a.Opt.MergeSubsets || a.OverApprox,
		VarSlot:          a.G.VarSlot,
		RetSlot:          a.G.RetSlot,
	}
	cc := &compiler{
		a:   a,
		opt: opt,
		// Superset dispatch cannot go through an exact hash table.
		hash:   opt.Hash && !p.SupersetDispatch,
		guards: make([]*bitset.Set, len(a.G.Blocks)),
	}
	p.Meta = make([]*simd.MetaCode, 0, len(a.States))
	for _, ms := range a.States {
		mc, err := cc.compileMeta(ms)
		if err != nil {
			return nil, err
		}
		p.Meta = append(p.Meta, mc)
	}
	return p, nil
}

// MustCompile compiles and panics on error; for tests and examples.
func MustCompile(a *msc.Automaton, opt Options) *simd.Program {
	p, err := Compile(a, opt)
	if err != nil {
		panic("codegen.MustCompile: " + err.Error())
	}
	return p
}

// compiler is one Compile call's state: what its meta states share,
// and per-meta-state scratch.
type compiler struct {
	a    *msc.Automaton
	opt  Options
	hash bool // multiway switches try a customized hash function

	// guards[id] is MIMD state id's singleton guard, built on first use.
	// It serves every slot that state alone executes.
	guards []*bitset.Set
	// searched memoizes the hash search by transition list; it is
	// created at the first hashed switch. keyBuf encodes the lookup key.
	searched map[string]hashResult
	keyBuf   []byte

	members []*cfg.Block
	threads []csi.Thread
	next    []int
}

// hashResult is one switch's hash search outcome: whether the search
// ran (it does not when a key exceeds the apc word), the candidates it
// tried, and the function it found, if any.
type hashResult struct {
	searched bool
	tried    int
	h        *simd.HashFn
}

// guard returns MIMD state id's singleton guard.
func (cc *compiler) guard(id int) *bitset.Set {
	g := cc.guards[id]
	if g == nil {
		g = bitset.Of(id)
		cc.guards[id] = g
	}
	return g
}

func (cc *compiler) compileMeta(ms *msc.MetaState) (*simd.MetaCode, error) {
	a, opt := cc.a, cc.opt
	mc := &simd.MetaCode{ID: ms.ID, Set: ms.Set}

	// Which members execute: in exact barrier mode, barrier-wait states
	// inside a mixed meta state just wait (§2.6); in paper mode mixed
	// states never exist and all-barrier states execute on release.
	allBarrier := ms.Set.Subset(a.Barriers)
	members := cc.members[:0]
	bodyLen := 0
	missing := -1
	ms.Set.ForEach(func(id int) {
		b := a.G.Block(id)
		if b == nil {
			if missing < 0 {
				missing = id
			}
			return
		}
		if b.Barrier && !allBarrier {
			return // waiting: contributes no code, pc unchanged
		}
		members = append(members, b)
		bodyLen += len(b.Code)
	})
	cc.members = members
	if missing >= 0 {
		return nil, fmt.Errorf("codegen: ms%d references missing MIMD state %d", ms.ID, missing)
	}

	// Body: one guarded slot per instruction, optionally CSI-merged.
	// Slots are allocated once: the body plus one terminator slot per
	// member (every TermKind emits exactly one).
	if opt.CSI {
		threads := cc.threads[:0]
		for _, b := range members {
			threads = append(threads, csi.Thread{Guard: cc.guard(b.ID), Code: b.Code})
		}
		cc.threads = threads
		sched, err := csi.InduceLimited(threads, csi.Limits{MaxCandidates: opt.MaxCSICandidates})
		if err != nil {
			var be *mscerr.BudgetError
			if errors.As(err, &be) {
				// Attribute the overrun to the codegen phase the pipeline
				// reports; the resource name still says csi_candidates.
				be.Phase = "codegen"
				return nil, be
			}
			return nil, fmt.Errorf("codegen: ms%d: %w", ms.ID, err)
		}
		opt.Metrics.Add(obs.CounterCSISavedCycles, int64(sched.Saved()))
		opt.Metrics.Add(obs.CounterCSISlotsSaved, int64(sched.SlotsSaved()))
		mc.Slots = make([]simd.Slot, 0, len(sched.Slots)+len(members))
		// Each member's projection of the schedule is its own code, so
		// next[i] is the index in members[i].Code of the next slot
		// members[i] executes.
		next := append(cc.next[:0], make([]int, len(members))...)
		cc.next = next
		member := func(id int) int {
			return sort.Search(len(members), func(i int) bool { return members[i].ID >= id })
		}
		for _, sl := range sched.Slots {
			// A CSI-merged slot serves every state in its guard; the
			// minimum member is the deterministic representative the
			// profiler attributes its cycles to, at the source line of
			// that member's instruction.
			rep := sl.Guard.Min()
			i := member(rep)
			pos := members[i].Code[next[i]].Pos
			sl.Guard.ForEach(func(id int) { next[member(id)]++ })
			mc.Slots = append(mc.Slots, simd.Slot{
				Kind:  simd.SlotExec,
				Guard: sl.Guard,
				Instr: sl.Instr,
				Block: rep,
				Pos:   pos,
			})
		}
	} else {
		mc.Slots = make([]simd.Slot, 0, bodyLen+len(members))
		for _, b := range members {
			guard := cc.guard(b.ID)
			for _, in := range b.Code {
				mc.Slots = append(mc.Slots, simd.Slot{
					Kind:  simd.SlotExec,
					Guard: guard,
					Instr: in,
					Block: b.ID,
					Pos:   in.Pos,
				})
			}
		}
	}

	// Terminators, in member order (Listing 5 places all pc updates
	// after the shared body).
	exitCheck := false
	for _, b := range members {
		guard := cc.guard(b.ID)
		switch b.Term {
		case cfg.End:
			mc.Slots = append(mc.Slots, simd.Slot{Kind: simd.SlotEnd, Guard: guard, Block: b.ID, Pos: b.Pos})
			exitCheck = true
		case cfg.Halt:
			mc.Slots = append(mc.Slots, simd.Slot{Kind: simd.SlotHalt, Guard: guard, Block: b.ID, Pos: b.Pos})
			exitCheck = true
		case cfg.Goto:
			mc.Slots = append(mc.Slots, simd.Slot{Kind: simd.SlotSetPC, Guard: guard, To: b.Next, Block: b.ID, Pos: b.Pos})
		case cfg.Branch:
			mc.Slots = append(mc.Slots, simd.Slot{
				Kind: simd.SlotJumpF, Guard: guard, To: b.Next, FTo: b.FNext, Block: b.ID, Pos: b.Pos,
			})
		case cfg.RetBr:
			mc.Slots = append(mc.Slots, simd.Slot{Kind: simd.SlotRetBr, Guard: guard, Block: b.ID, Pos: b.Pos})
		case cfg.Spawn:
			mc.Slots = append(mc.Slots, simd.Slot{
				Kind: simd.SlotSpawn, Guard: guard, To: b.Next, ChildTo: b.SpawnNext, Block: b.ID, Pos: b.Pos,
			})
		}
	}

	// Transition encoding (§3.2). Each key is its target state's set.
	if len(ms.Trans) > 0 {
		mc.Trans.Entries = make([]simd.DispatchEntry, len(ms.Trans))
		for i, to := range ms.Trans {
			mc.Trans.Entries[i] = simd.DispatchEntry{Key: a.States[to].Set, To: to}
		}
	}
	opt.Metrics.Add(obs.CounterDispatchEntries, int64(len(mc.Trans.Entries)))
	switch {
	case len(mc.Trans.Entries) == 0:
		mc.Trans.Kind = simd.TransNone
	case len(mc.Trans.Entries) == 1:
		mc.Trans.Kind = simd.TransGoto
		mc.Trans.ExitCheck = exitCheck
	default:
		mc.Trans.Kind = simd.TransSwitch
		if cc.hash {
			if h := cc.hashTable(mc.Trans.Entries); h != nil {
				mc.Trans.Hash = h
				opt.Metrics.Add(obs.CounterHashTables, 1)
			}
		}
	}
	return mc, nil
}

// maxHashedWays bounds the switch width worth a customized hash: wider
// dispatches keep the generic map lookup ([Die92a] targets the small
// switches real meta states produce).
const maxHashedWays = 32

// hashTable returns a customized hash function over a switch's
// dispatch keys, or nil when the keys exceed the one-bit-per-pc word or
// no function is found. Search effort is
// recorded even when the search fails.
//
// Switches with equal transition lists have equal keys (each key is
// its target state's set) and equal targets, so the search runs once
// per distinct list and they share the resulting function. Every
// switch still records the search's effort, as if it had searched.
func (cc *compiler) hashTable(entries []simd.DispatchEntry) *simd.HashFn {
	if len(entries) > maxHashedWays {
		return nil
	}
	cc.keyBuf = cc.keyBuf[:0]
	for _, e := range entries {
		cc.keyBuf = binary.AppendUvarint(cc.keyBuf, uint64(e.To))
	}
	r, ok := cc.searched[string(cc.keyBuf)]
	if !ok {
		r = searchHash(entries)
		if cc.searched == nil {
			cc.searched = make(map[string]hashResult)
		}
		cc.searched[string(cc.keyBuf)] = r
	}
	if r.searched {
		cc.opt.Metrics.Add(obs.CounterHashTried, int64(r.tried))
	}
	return r.h
}

// searchHash runs the hash search over the entries' keys and builds
// the function's jump table.
func searchHash(entries []simd.DispatchEntry) hashResult {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		w, ok := e.Key.Word()
		if !ok {
			return hashResult{}
		}
		keys[i] = w
	}
	h, tried, err := hashgen.Search(keys)
	if err != nil {
		return hashResult{searched: true, tried: tried}
	}
	table := make([]int, h.Mask+1)
	for i := range table {
		table[i] = -1
	}
	for i, k := range keys {
		table[h.Index(k)] = entries[i].To
	}
	h.Table = table
	return hashResult{searched: true, tried: tried, h: h}
}
