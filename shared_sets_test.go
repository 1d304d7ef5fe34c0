package msc_test

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"msc"
	"msc/internal/artifact"
	"msc/internal/bitset"
	"msc/internal/harness"
	"msc/internal/hashgen"
	"msc/internal/obs"
	"msc/internal/progen"
	"msc/internal/simd"
	"msc/internal/telemetry"
)

// A compiled program shares its sets instead of copying them: each
// MetaCode.Set and each DispatchEntry.Key is an automaton state's own
// set, each MIMD state has one singleton guard, and switches with the
// same transition list share one HashFn. These tests check that every
// reader of a Compiled leaves those shared values as it found them.

// sharedEntry is one program of a pool, and its compile.
type sharedEntry struct {
	name string
	src  string
	conf msc.Config
	ia   int
	c    *msc.Compiled
}

// compilePool compiles every entry of pool.
func compilePool(t *testing.T, pool []sharedEntry) []sharedEntry {
	t.Helper()
	for i := range pool {
		c, err := msc.Compile(pool[i].src, pool[i].conf)
		if err != nil {
			t.Fatalf("%s: %v", pool[i].name, err)
		}
		pool[i].c = c
	}
	return pool
}

// progenPool compiles generated programs from seed upward and returns
// the first n whose automata fit in 4,096 meta states; uncompressed,
// some of them explode past that and are skipped.
func progenPool(t *testing.T, n int, seed int64, conf func(i int) msc.Config) []sharedEntry {
	t.Helper()
	var pool []sharedEntry
	for i := 0; len(pool) < n; i++ {
		if i == 2*n {
			t.Fatalf("only %d of %d generated programs fit in 4,096 meta states", len(pool), i)
		}
		p := progen.Params{Seed: seed + int64(i), MaxDepth: 2, Barriers: i%3 == 0, Calls: i%4 == 1, Floats: i%4 == 2}
		en := sharedEntry{name: fmt.Sprintf("progen-%d", p.Seed), src: progen.Source(p), conf: conf(i)}
		en.conf.MaxStates = 4096
		c, err := msc.Compile(en.src, en.conf)
		var be *msc.BudgetError
		if errors.As(err, &be) && be.Resource == "meta_states" {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", en.name, err)
		}
		en.c = c
		pool = append(pool, en)
	}
	return pool
}

// sharedSetsPool is SeqLoops(4) uncompressed with hashing, the paper
// suite at DefaultConfig, and 20 generated programs alternating
// between the two configs.
func sharedSetsPool(t *testing.T) []sharedEntry {
	t.Helper()
	explode := msc.Config{Hash: true}
	pool := []sharedEntry{{name: "seqloops-4", src: harness.SeqLoops(4, false), conf: explode}}
	for _, w := range harness.BenchSuite() {
		pool = append(pool, sharedEntry{name: "suite/" + w.Name, src: w.Source, conf: msc.DefaultConfig(), ia: w.InitialActive})
	}
	pool = compilePool(t, pool)
	return append(pool, progenPool(t, 20, 7100, func(i int) msc.Config {
		if i%2 == 1 {
			return msc.DefaultConfig()
		}
		return explode
	})...)
}

// setSnapshot records the words of every set a compile shares, and
// every hash function, so a later comparison finds any write.
type setSnapshot struct {
	sets   []*bitset.Set
	words  [][]uint64
	hashes []*simd.HashFn
	fns    []simd.HashFn // copies, tables included
}

func (s *setSnapshot) add(set *bitset.Set) {
	s.sets = append(s.sets, set)
	s.words = append(s.words, append([]uint64(nil), set.Words()...))
}

func snapshotSets(c *msc.Compiled) *setSnapshot {
	s := &setSnapshot{}
	for _, ms := range c.Automaton.States {
		s.add(ms.Set)
	}
	for _, mc := range c.Program.Meta {
		s.add(mc.Set)
		for i := range mc.Slots {
			s.add(mc.Slots[i].Guard)
		}
		for _, e := range mc.Trans.Entries {
			s.add(e.Key)
		}
		if h := mc.Trans.Hash; h != nil {
			fn := *h
			fn.Table = append([]int(nil), h.Table...)
			s.hashes = append(s.hashes, h)
			s.fns = append(s.fns, fn)
		}
	}
	return s
}

// changed returns a description of the first shared value that no
// longer matches its snapshot, or "".
func (s *setSnapshot) changed() string {
	for i, set := range s.sets {
		if got := set.Words(); !reflect.DeepEqual(got, s.words[i]) && !(len(got) == 0 && len(s.words[i]) == 0) {
			return fmt.Sprintf("set %d changed from %v to %v", i, s.words[i], got)
		}
	}
	for i, h := range s.hashes {
		if !reflect.DeepEqual(*h, s.fns[i]) {
			return fmt.Sprintf("hash function %d changed", i)
		}
	}
	return ""
}

// checkSharing requires the sharing the compiler promises: every meta
// set and dispatch key is its automaton state's set, and each MIMD
// state's single-member guards are one pointer.
func checkSharing(t *testing.T, name string, c *msc.Compiled) {
	t.Helper()
	states := c.Automaton.States
	guards := map[int]*bitset.Set{}
	for _, mc := range c.Program.Meta {
		if mc.Set != states[mc.ID].Set {
			t.Fatalf("%s: ms%d: MetaCode.Set is not the automaton state's set", name, mc.ID)
		}
		for _, e := range mc.Trans.Entries {
			if e.Key != states[e.To].Set {
				t.Fatalf("%s: ms%d: key of the entry to ms%d is not that state's set", name, mc.ID, e.To)
			}
		}
		for i := range mc.Slots {
			g := mc.Slots[i].Guard
			if g.Len() != 1 {
				continue
			}
			id := g.Min()
			if first, ok := guards[id]; !ok {
				guards[id] = g
			} else if first != g {
				t.Fatalf("%s: ms%d slot %d: state %d has more than one singleton guard", name, mc.ID, i, id)
			}
		}
	}
}

// readEverything drives every reader of a Compiled: the three engines
// (the SIMD one with a profiler and a timeline), the artifact codec,
// the Go backend, the MPL and Dot emitters, and the static analyzer.
func readEverything(en sharedEntry, c *msc.Compiled) error {
	rc := msc.RunConfig{N: 8, InitialActive: en.ia}
	simdRC := rc
	simdRC.Profiler = telemetry.NewProfiler(1)
	simdRC.Sink = &obs.TextSink{Timeline: io.Discard}
	res, err := c.RunSIMD(simdRC)
	if err != nil {
		return fmt.Errorf("RunSIMD: %w", err)
	}
	if _, err := c.RunMIMD(rc); err != nil {
		return fmt.Errorf("RunMIMD: %w", err)
	}
	if _, err := c.RunInterp(rc); err != nil {
		return fmt.Errorf("RunInterp: %w", err)
	}
	art := &artifact.Artifact{Graph: c.Graph, Automaton: c.Automaton, Program: c.Program}
	data, err := artifact.Encode(art, artifact.Key{})
	if err != nil {
		return fmt.Errorf("artifact.Encode: %w", err)
	}
	back, _, err := artifact.Decode(data)
	if err != nil {
		return fmt.Errorf("artifact.Decode: %w", err)
	}
	if artifact.Fingerprint(back) != artifact.Fingerprint(art) {
		return fmt.Errorf("artifact round trip changed the fingerprint")
	}
	if _, err := c.EmitGo(8); err != nil {
		return fmt.Errorf("EmitGo: %w", err)
	}
	_ = c.MPL()
	_ = c.DotAutomaton("automaton")
	_ = c.DotProfile("profile", res)
	_ = msc.Analyze(c.Graph, c.Automaton)
	return nil
}

// TestSharedSetsReadOnly snapshots every shared set of each pool
// program, drives every reader, and requires the snapshots unchanged.
func TestSharedSetsReadOnly(t *testing.T) {
	for _, en := range sharedSetsPool(t) {
		c := en.c
		checkSharing(t, en.name, c)
		snap := snapshotSets(c)
		if err := readEverything(en, c); err != nil {
			t.Fatalf("%s: %v", en.name, err)
		}
		if what := snap.changed(); what != "" {
			t.Fatalf("%s: a reader wrote a shared value: %s", en.name, what)
		}
	}
}

// TestSharedSetsConcurrentReaders drives one Compiled from several
// goroutines at once; under -race it finds any reader that writes a
// shared set.
func TestSharedSetsConcurrentReaders(t *testing.T) {
	pool := sharedSetsPool(t)
	for _, en := range []sharedEntry{pool[0], pool[1], pool[len(pool)-1]} {
		c := en.c
		snap := snapshotSets(c)
		const readers = 4
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = readEverything(en, c)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", en.name, err)
			}
		}
		if what := snap.changed(); what != "" {
			t.Fatalf("%s: a reader wrote a shared value: %s", en.name, what)
		}
	}
}

// explodePool is the repository benchmark's explode workload
// (perfbench/compile.go): uncompressed, hashed automata up to 4,096
// meta states.
func explodePool() []sharedEntry {
	explode := msc.Config{Hash: true}
	split := msc.Config{Hash: true, TimeSplit: true}
	var pool []sharedEntry
	for k := 2; k <= 6; k++ {
		pool = append(pool,
			sharedEntry{name: fmt.Sprintf("seqloops-%d", k), src: harness.SeqLoops(k, false), conf: explode},
			sharedEntry{name: fmt.Sprintf("seqloops-barrier-%d", k), src: harness.SeqLoops(k, true), conf: explode})
	}
	for _, k := range []int{2, 4, 8, 16, 32} {
		pool = append(pool, sharedEntry{name: fmt.Sprintf("barrierphases-%d", k), src: harness.BarrierPhases(k), conf: explode})
	}
	for _, w := range harness.BenchSuite() {
		pool = append(pool, sharedEntry{name: "suite/" + w.Name, src: w.Source, conf: explode, ia: w.InitialActive})
	}
	for _, r := range []int{5, 10, 20, 50} {
		pool = append(pool, sharedEntry{name: fmt.Sprintf("imbalance-%d", r), src: harness.Imbalance(r), conf: split})
	}
	return pool
}

// maxHashedWays mirrors codegen's bound on hashed switch width.
const maxHashedWays = 32

// TestHashMemoMatchesFreshSearch is the oracle of codegen's hash-search
// memo: every switch's hash function, fields and table, must equal a
// fresh hashgen.Search over that switch's own keys plus the table
// build, and the compile's HashCandidatesTried must equal the sum of
// those fresh searches. It runs the explode pool and 120 uncompressed
// generated programs, and requires that some switches did share.
func TestHashMemoMatchesFreshSearch(t *testing.T) {
	pool := compilePool(t, explodePool())
	pool = append(pool, progenPool(t, 120, 20000, func(int) msc.Config { return msc.Config{Hash: true} })...)
	switches, shared := 0, 0
	for _, en := range pool {
		c := en.c
		var tried int64
		fns := map[*simd.HashFn]bool{}
		hashed := 0
		for _, mc := range c.Program.Meta {
			tr := &mc.Trans
			if tr.Kind != simd.TransSwitch {
				continue
			}
			switches++
			want, n, searched := freshHash(tr.Entries)
			tried += int64(n)
			if !searched || want == nil {
				if tr.Hash != nil {
					t.Fatalf("%s: ms%d has a hash function, a fresh search finds none", en.name, mc.ID)
				}
				continue
			}
			if !reflect.DeepEqual(tr.Hash, want) {
				t.Fatalf("%s: ms%d: hash function %+v, a fresh search gives %+v", en.name, mc.ID, *tr.Hash, *want)
			}
			hashed++
			fns[tr.Hash] = true
		}
		if tried != c.Stats.HashCandidatesTried {
			t.Fatalf("%s: HashCandidatesTried %d, fresh searches tried %d", en.name, c.Stats.HashCandidatesTried, tried)
		}
		shared += hashed - len(fns)
	}
	if shared == 0 {
		t.Fatalf("no switch of %d shared a hash function; the memo is not exercised", switches)
	}
	t.Logf("%d programs, %d switches, %d served by an earlier identical search", len(pool), switches, shared)
}

// freshHash runs hashgen.Search on a switch's keys and builds the jump
// table, as codegen does for each distinct switch. searched is false
// when the switch is too wide or a key exceeds the apc word.
func freshHash(entries []simd.DispatchEntry) (h *simd.HashFn, tried int, searched bool) {
	if len(entries) > maxHashedWays {
		return nil, 0, false
	}
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		w, ok := e.Key.Word()
		if !ok {
			return nil, 0, false
		}
		keys[i] = w
	}
	h, tried, err := hashgen.Search(keys)
	if err != nil {
		return nil, tried, true
	}
	h.Table = make([]int, h.Mask+1)
	for i := range h.Table {
		h.Table[i] = -1
	}
	for i, k := range keys {
		h.Table[h.Index(k)] = entries[i].To
	}
	return h, tried, true
}

// TestExplodeAllocations pins the allocations of two compiles. One is
// an uncompressed, hashed SeqLoops(5) (1,024 meta states): sharing sets
// instead of cloning them, and sizing each transition list once, took
// it from about 82,000 to about 13,000, and its bound is about 1.2
// times that. The other is divergent at DefaultConfig: a recorder of
// plain values in place of a private registry per compile took it from
// 551 to 438, and its bound is about 1.1 times that.
func TestExplodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		name  string
		src   string
		conf  msc.Config
		bound float64
	}{
		{"SeqLoops(5)", harness.SeqLoops(5, false), msc.Config{Hash: true, ConvertWorkers: 1}, 15700},
		{"divergent", harness.Divergent, msc.DefaultConfig(), 480},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := msc.Compile(tc.src, tc.conf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.bound {
			t.Errorf("%s compile made %.0f allocations, bound %.0f", tc.name, allocs, tc.bound)
		}
		t.Logf("%s: %.0f allocations (bound %.0f)", tc.name, allocs, tc.bound)
	}
}
