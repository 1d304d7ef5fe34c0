package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// schedule hands out the op sequence of one phase: round r is a
// permutation of the deck seeded by (seed, r), so the seed alone fixes
// which entry op seq runs. A phase ends on a round boundary once its
// wall budget is spent, so every phase runs whole decks and the op mix
// is exact whatever the machine's speed. A phase that continues an
// earlier one starts at round round0.
type schedule struct {
	seed   int64
	deck   []int
	round0 int
	start  time.Time
	budget time.Duration

	mu      sync.Mutex
	n       int
	perm    []int
	stopped bool
}

func (s *schedule) next() (seq, entry int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.n % len(s.deck)
	if s.stopped || (pos == 0 && s.n > 0 && time.Since(s.start) >= s.budget) {
		s.stopped = true
		return 0, 0, false
	}
	if pos == 0 {
		s.perm = roundPerm(s.seed, s.round0+s.n/len(s.deck), len(s.deck))
	}
	seq = s.round0*len(s.deck) + s.n
	s.n++
	return seq, s.deck[s.perm[pos]], true
}

// roundPerm is round r's deck order for seed.
func roundPerm(seed int64, r, n int) []int {
	return rand.New(rand.NewSource(seed*1000003 + int64(r))).Perm(n)
}

// round is the record of one round of a phase. Latencies are kept
// as float32 nanoseconds, and per round rather than per op, so the
// benchmark's own bookkeeping stays a small part of peak_rss_mib even
// at tens of thousands of ops per second.
type round struct {
	lats        []float32
	first, last time.Duration // earliest op start, latest op end, from the phase's start
	off         time.Duration // output checks, off the clock
	ok          int
}

// failure is one failed op, listed by op index.
type failure struct {
	seq   int
	entry string
	err   error
}

// phase is the record of one measured phase.
type phase struct {
	rounds   []round
	failures []failure
	wall     time.Duration
	clients  int
}

// runPhase drives clients closed loops over the schedule from round
// round0 on: each client runs its next op only after the previous one
// returned.
func runPhase(b bench, seed int64, round0, clients int, budget time.Duration, tr *tracer) *phase {
	deck := b.deck()
	s := &schedule{seed: seed, deck: deck, round0: round0, start: time.Now(), budget: budget}
	ph := &phase{clients: clients}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq, e, ok := s.next()
				if !ok {
					return
				}
				start := time.Since(s.start)
				lat, err := b.op(seq, e, tr)
				end := time.Since(s.start)
				mu.Lock()
				r := seq/len(deck) - round0
				for len(ph.rounds) <= r {
					ph.rounds = append(ph.rounds, round{first: math.MaxInt64})
				}
				rd := &ph.rounds[r]
				rd.lats = append(rd.lats, float32(lat))
				rd.first, rd.last = min(rd.first, start), max(rd.last, end)
				rd.off += end - start - lat
				if err == nil {
					rd.ok++
				} else {
					ph.failures = append(ph.failures, failure{seq, b.entryName(e), err})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(s.start)
	sort.Slice(ph.failures, func(i, j int) bool { return ph.failures[i].seq < ph.failures[j].seq })
	return ph
}

func (p *phase) attempted() int {
	n := 0
	for _, r := range p.rounds {
		n += len(r.lats)
	}
	return n
}

func (p *phase) okFrac() float64 {
	n := p.attempted()
	if n == 0 {
		return 0
	}
	return float64(n-len(p.failures)) / float64(n)
}

func (p *phase) opsPerSecond() float64 { return opsPerSecond(p.rounds, p.clients) }

// opsPerSecond counts completed, correct ops per second of the rounds'
// wall time, with the output checks taken off the clock.
func opsPerSecond(rounds []round, clients int) float64 {
	if len(rounds) == 0 {
		return 0
	}
	first, last := rounds[0].first, rounds[0].last
	var off time.Duration
	ok := 0
	for _, r := range rounds {
		first, last = min(first, r.first), max(last, r.last)
		off += r.off
		ok += r.ok
	}
	busy := last - first - off/time.Duration(clients)
	if busy <= 0 {
		return 0
	}
	return float64(ok) / busy.Seconds()
}

// timing is a run's timing metrics: each the median over its windows.
type timing struct {
	opsPerS   float64
	p50, tail time.Duration
	tailP     float64 // the percentile tail reports
}

// timingOf takes each window's ops/s, p50 and tail at rung, or at the
// highest rung its samples support, and reports the median of each
// over the windows, so a burst of interference from other tenants of
// the machine moves one window, not the result.
func timingOf(ws []*phase, rung float64) timing {
	var rates, p50s, tails []float64
	t := timing{tailP: rung}
	for _, w := range ws {
		var lat []time.Duration
		for _, r := range w.rounds {
			for _, l := range r.lats {
				lat = append(lat, time.Duration(l))
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		tp := math.Min(rung, tailPercentile(len(lat)))
		t.tailP = math.Min(t.tailP, tp)
		rates = append(rates, w.opsPerSecond())
		p50s = append(p50s, float64(percentile(lat, 50)))
		tails = append(tails, float64(percentile(lat, tp)))
	}
	t.opsPerS = median(rates)
	t.p50 = time.Duration(median(p50s))
	t.tail = time.Duration(median(tails))
	return t
}

// report lists every failing op by seed and op index on w.
func (p *phase) report(w io.Writer, name string, seed int64) {
	fmt.Fprintf(w, "perfbench: %s seed %d: %d ops, %d failed, wall %v\n",
		name, seed, p.attempted(), len(p.failures), p.wall.Round(time.Millisecond))
	for _, f := range p.failures {
		fmt.Fprintf(w, "perfbench: FAIL seed %d op %d (%s): %v\n", seed, f.seq, f.entry, f.err)
	}
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// rank is the 0-based nearest-rank index of the p-th percentile of n
// samples; n-1-rank samples lie beyond it.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// tailLadder is the set of percentiles latency_tail_ms chooses from,
// highest first. Rungs above p99 are left out: they rest on the few
// dozen slowest ops, which on a shared machine are mostly scheduler and
// collector stalls rather than the program's own cost.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond the tail percentile.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that has at least
// minBeyond of n samples beyond it, or the lowest rung when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-1-rank(n, p) >= minBeyond {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
