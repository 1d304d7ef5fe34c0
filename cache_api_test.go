package msc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"msc/internal/cache"
	"msc/internal/faultinject"
	"msc/internal/obs"
	"msc/internal/progen"
	"msc/internal/telemetry"
)

// A source with a static-analysis finding, so the diagnostic round trip
// through the cache (severity included) is actually exercised.
const cachedSrc = "poly int x;\npoly int y;\nvoid main() { y = x; x = y + 1; return; }"

func openTestCache(t *testing.T) *Cache {
	t.Helper()
	cc, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	return cc
}

func TestCacheColdWarmHit(t *testing.T) {
	cc := openTestCache(t)
	reg := telemetry.NewRegistry()
	conf := DefaultConfig()
	conf.Cache = cc
	conf.Metrics = reg

	cold, err := Compile(cachedSrc, conf)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	if cold.Stats.CacheOutcome != "stored" {
		t.Fatalf("cold outcome = %q, want stored", cold.Stats.CacheOutcome)
	}
	if cold.AST == nil {
		t.Fatal("cold compile lost its AST")
	}
	if n := reg.Counter(obs.CounterPipelineRuns, "").Value(); n != 1 {
		t.Fatalf("pipeline runs after cold = %d", n)
	}

	warm, err := Compile(cachedSrc, conf)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if warm.Stats.CacheOutcome != "hit" {
		t.Fatalf("warm outcome = %q, want hit (errors: %v)", warm.Stats.CacheOutcome, warm.Stats.CacheErrors)
	}
	if warm.AST != nil {
		t.Fatal("cache hits carry no AST by contract")
	}
	if n := reg.Counter(obs.CounterPipelineRuns, "").Value(); n != 1 {
		t.Fatalf("pipeline runs after warm = %d, want 1 (the hit must not recompile)", n)
	}
	if reg.Counter(obs.CounterCacheHits, "").Value() != 1 || reg.Counter(obs.CounterCacheMisses, "").Value() != 1 || reg.Counter(obs.CounterCacheStores, "").Value() != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d stores=%d",
			reg.Counter(obs.CounterCacheHits, "").Value(), reg.Counter(obs.CounterCacheMisses, "").Value(), reg.Counter(obs.CounterCacheStores, "").Value())
	}
	if cold.Fingerprint() != warm.Fingerprint() {
		t.Fatal("warm hit is not byte-identical to the cold compile")
	}
	if !reflect.DeepEqual(cold.Diagnostics, warm.Diagnostics) {
		t.Fatalf("diagnostics did not round-trip:\ncold %v\nwarm %v", cold.Diagnostics, warm.Diagnostics)
	}
	// The hit must be operational, not just structurally equal.
	if warm.MetaStates() == 0 || warm.MetaStates() != cold.MetaStates() {
		t.Fatalf("meta states: cold %d warm %d", cold.MetaStates(), warm.MetaStates())
	}
	st := cc.Stats()
	if st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestCacheFaultRecoveryMatrix drives every filesystem fault through a
// cached compile and proves the robustness contract end to end: the
// compile always succeeds, the fault is absorbed into CacheErrors and
// counters, and cold, faulted, recovered, and warm compiles all produce
// the same result fingerprint.
func TestCacheFaultRecoveryMatrix(t *testing.T) {
	conf := DefaultConfig()
	base, err := Compile(cachedSrc, conf) // no cache: ground truth
	if err != nil {
		t.Fatal(err)
	}
	wantFP := base.Fingerprint()

	compile := func(t *testing.T, cc *Cache, reg *telemetry.Registry) *Compiled {
		t.Helper()
		c := conf
		c.Cache = cc
		c.Metrics = reg
		got, err := Compile(cachedSrc, c)
		if err != nil {
			t.Fatalf("cached compile must never fail on a cache fault: %v", err)
		}
		if got.Fingerprint() != wantFP {
			t.Fatalf("fingerprint diverged: outcome %q errors %v", got.Stats.CacheOutcome, got.Stats.CacheErrors)
		}
		return got
	}

	t.Run("torn-write-at-byte-k", func(t *testing.T) {
		cc := openTestCache(t)
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.TornWrite, Byte: 100, Times: 1})
		compile(t, cc, nil) // the tear is silent at write time
		undo()
		reg := telemetry.NewRegistry()
		got := compile(t, cc, reg) // detects, quarantines, recompiles, re-stores
		if got.Stats.CacheOutcome != "stored" || len(got.Stats.CacheErrors) == 0 {
			t.Fatalf("outcome %q errors %v; want stored with absorbed error", got.Stats.CacheOutcome, got.Stats.CacheErrors)
		}
		if reg.Counter(obs.CounterCacheQuarantined, "").Value() != 1 {
			t.Fatalf("quarantined counter = %d", reg.Counter(obs.CounterCacheQuarantined, "").Value())
		}
		if got = compile(t, cc, nil); got.Stats.CacheOutcome != "hit" {
			t.Fatalf("post-recovery outcome = %q, want hit", got.Stats.CacheOutcome)
		}
	})

	t.Run("enospc-at-write-n", func(t *testing.T) {
		cc := openTestCache(t)
		reg := telemetry.NewRegistry()
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.WriteENOSPC, Nth: 1, Times: 1})
		got := compile(t, cc, reg)
		undo()
		if got.Stats.CacheOutcome != "uncached" || len(got.Stats.CacheErrors) == 0 {
			t.Fatalf("outcome %q errors %v; want uncached with absorbed ENOSPC", got.Stats.CacheOutcome, got.Stats.CacheErrors)
		}
		if reg.Counter(obs.CounterCacheErrors, "").Value() == 0 {
			t.Fatal("cache.errors not recorded")
		}
		if got = compile(t, cc, nil); got.Stats.CacheOutcome != "stored" {
			t.Fatalf("recovery outcome = %q, want stored", got.Stats.CacheOutcome)
		}
	})

	t.Run("bit-flip-on-read", func(t *testing.T) {
		cc := openTestCache(t)
		compile(t, cc, nil) // seed the entry
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.BitFlipRead, Byte: 12345, Times: 1})
		got := compile(t, cc, nil)
		undo()
		if len(got.Stats.CacheErrors) == 0 {
			t.Fatal("bit flip was not absorbed into CacheErrors")
		}
		if got = compile(t, cc, nil); got.Stats.CacheOutcome != "hit" {
			t.Fatalf("post-flip outcome = %q, want hit", got.Stats.CacheOutcome)
		}
	})

	t.Run("rename-failure", func(t *testing.T) {
		cc := openTestCache(t)
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.RenameFail, Times: 1})
		got := compile(t, cc, nil)
		undo()
		if got.Stats.CacheOutcome != "uncached" || len(got.Stats.CacheErrors) == 0 {
			t.Fatalf("outcome %q errors %v", got.Stats.CacheOutcome, got.Stats.CacheErrors)
		}
		if got = compile(t, cc, nil); got.Stats.CacheOutcome != "stored" {
			t.Fatalf("recovery outcome = %q", got.Stats.CacheOutcome)
		}
	})

	t.Run("crash-between-temp-and-rename", func(t *testing.T) {
		dir := t.TempDir()
		cc, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.CrashBeforeRename, Times: 1})
		got := compile(t, cc, nil)
		undo()
		if got.Stats.CacheOutcome != "uncached" || len(got.Stats.CacheErrors) == 0 {
			t.Fatalf("outcome %q errors %v", got.Stats.CacheOutcome, got.Stats.CacheErrors)
		}
		// "Restart" after the crash: a fresh handle sweeps the orphan and
		// the cache converges to a verified hit.
		cc2, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ents, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(ents) != 0 {
			t.Fatalf("orphan temp not swept on reopen: %d files", len(ents))
		}
		if got = compile(t, cc2, nil); got.Stats.CacheOutcome != "stored" {
			t.Fatalf("post-crash outcome = %q", got.Stats.CacheOutcome)
		}
		if got = compile(t, cc2, nil); got.Stats.CacheOutcome != "hit" {
			t.Fatalf("converged outcome = %q", got.Stats.CacheOutcome)
		}
	})
}

// TestCacheSingleFlight: concurrent identical compiles share one
// pipeline execution. The leader is pinned inside the pipeline by a
// slow-phase fault long enough for every other goroutine to coalesce
// onto its flight; stragglers that miss the flight window hit the
// store instead — either way the pipeline runs exactly once.
func TestCacheSingleFlight(t *testing.T) {
	cc := openTestCache(t)
	reg := telemetry.NewRegistry()
	conf := DefaultConfig()
	conf.Cache = cc
	conf.Metrics = reg

	undo := faultinject.Activate(&faultinject.Plan{
		Fault: faultinject.SlowPhase, Phase: obs.PhaseConvert, Delay: 300 * time.Millisecond, Times: 1,
	})
	defer undo()

	const n = 8
	results := make([]*Compiled, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Compile(cachedSrc, conf)
		}(i)
	}
	wg.Wait()

	fp := ""
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		if fp == "" {
			fp = results[i].Fingerprint()
		} else if results[i].Fingerprint() != fp {
			t.Fatalf("compile %d returned a different result", i)
		}
	}
	if runs := reg.Counter(obs.CounterPipelineRuns, "").Value(); runs != 1 {
		t.Fatalf("pipeline ran %d times for %d identical concurrent compiles", runs, n)
	}
	shared := reg.Counter(obs.CounterCacheShared, "").Value()
	hits := reg.Counter(obs.CounterCacheHits, "").Value()
	if shared+hits != n-1 {
		t.Fatalf("dedup accounting: shared=%d hits=%d, want %d combined", shared, hits, n-1)
	}
	if cc.activeFlights() != 0 {
		t.Fatalf("%d flights leaked", cc.activeFlights())
	}
	if cc.Stats().SingleFlightShared != shared {
		t.Fatalf("Stats.SingleFlightShared = %d, recorder says %d", cc.Stats().SingleFlightShared, shared)
	}
}

// TestCacheLeaderCancelPromotion: when the leader fails only because
// its own context died, a waiter with a live context must promote
// itself to leader and compile — the cancellation is not contagious —
// and the flight table must not leak either way.
func TestCacheLeaderCancelPromotion(t *testing.T) {
	cc := openTestCache(t)
	reg := telemetry.NewRegistry()
	conf := DefaultConfig()
	conf.Cache = cc
	conf.Metrics = reg

	key := cacheKey(cachedSrc, conf)
	name := cache.Name(key)

	// Stage a flight by hand so the scheduling is deterministic: the
	// waiter is provably parked on the flight before the leader fails.
	fl := &flight{done: make(chan struct{})}
	cc.mu.Lock()
	cc.flights[name] = fl
	cc.mu.Unlock()

	type res struct {
		c   *Compiled
		err error
	}
	waiter := make(chan res, 1)
	go func() {
		c, err := Compile(cachedSrc, conf)
		waiter <- res{c, err}
	}()
	// Let the waiter park. Its only way forward is fl.done.
	time.Sleep(50 * time.Millisecond)

	// The leader dies of its own cancellation.
	fl.err = fmt.Errorf("msc: canceled before convert: %w", context.Canceled)
	fl.canceled = true
	cc.mu.Lock()
	delete(cc.flights, name)
	cc.mu.Unlock()
	close(fl.done)

	r := <-waiter
	if r.err != nil {
		t.Fatalf("promoted waiter failed: %v", r.err)
	}
	if r.c.Stats.CacheOutcome != "stored" {
		t.Fatalf("promoted waiter outcome = %q, want stored (a real compile)", r.c.Stats.CacheOutcome)
	}
	if runs := reg.Counter(obs.CounterPipelineRuns, "").Value(); runs != 1 {
		t.Fatalf("pipeline runs = %d", runs)
	}
	if cc.activeFlights() != 0 {
		t.Fatalf("%d flights leaked after promotion", cc.activeFlights())
	}

	// A waiter whose own context is also dead inherits the error instead
	// of compiling against a canceled context.
	fl2 := &flight{done: make(chan struct{})}
	cc.mu.Lock()
	cc.flights[name] = fl2
	cc.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done2 := make(chan res, 1)
	go func() {
		c, err := CompileContext(ctx, cachedSrc, conf)
		done2 <- res{c, err}
	}()
	r2 := <-done2
	if r2.err == nil || !errors.Is(r2.err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", r2.err)
	}
	cc.mu.Lock()
	delete(cc.flights, name)
	cc.mu.Unlock()
	close(fl2.done)
}

// TestCacheConfigFingerprint: result-affecting knobs separate keys,
// result-neutral knobs share them.
func TestCacheConfigFingerprint(t *testing.T) {
	base := DefaultConfig()
	affecting := []func(*Config){
		func(c *Config) { c.Compress = false },
		func(c *Config) { c.TimeSplit = true },
		func(c *Config) { c.BarrierExact = true },
		func(c *Config) { c.ExpandCalls = true },
		func(c *Config) { c.CSI = false },
		func(c *Config) { c.Hash = false },
		func(c *Config) { c.Opt = 2 },
		func(c *Config) { c.Vet = true },
		func(c *Config) { c.MaxStates = 1000 },
		func(c *Config) { c.Limits.MaxStates = 500 },
		func(c *Config) { c.Limits.MaxCSICandidates = 3 },
	}
	baseFP := configFingerprint(base)
	seen := map[[32]byte]int{baseFP: -1}
	for i, mut := range affecting {
		c := base
		mut(&c)
		fp := configFingerprint(c)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("mutation %d collides with %d", i, prev)
		}
		seen[fp] = i
	}
	neutral := []func(*Config){
		func(c *Config) { c.ConvertWorkers = 7 },
		func(c *Config) { c.Verify = true },
		func(c *Config) { c.Degrade = true },
		func(c *Config) { c.Limits.Deadline = time.Hour },
		func(c *Config) { c.Metrics = telemetry.NewRegistry() },
	}
	for i, mut := range neutral {
		c := base
		mut(&c)
		if configFingerprint(c) != baseFP {
			t.Fatalf("result-neutral mutation %d changed the fingerprint", i)
		}
	}
}

// TestCacheDegradedNotStored: a compile that walked the degradation
// ladder reflects this process's budget pressure, not the (source,
// config) identity — it must not be cached.
func TestCacheDegradedNotStored(t *testing.T) {
	cc := openTestCache(t)
	reg := telemetry.NewRegistry()
	conf := DefaultConfig()
	conf.Cache = cc
	conf.Metrics = reg
	conf.Degrade = true

	undo := faultinject.Activate(&faultinject.Plan{
		Fault: faultinject.BudgetAtPhase, Phase: obs.PhaseCodegen, Times: 1,
	})
	got, err := Compile(cachedSrc, conf)
	undo()
	if err != nil {
		t.Fatalf("degraded compile: %v", err)
	}
	if len(got.Degradations) == 0 {
		t.Fatal("test premise broken: compile did not degrade")
	}
	if got.Stats.CacheOutcome != "uncached" {
		t.Fatalf("degraded outcome = %q, want uncached", got.Stats.CacheOutcome)
	}
	if cc.Stats().Entries != 0 {
		t.Fatalf("degraded result was stored: %+v", cc.Stats())
	}
	// The next compile (no fault) runs the pipeline again and stores.
	got2, err := Compile(cachedSrc, conf)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Stats.CacheOutcome != "stored" || len(got2.Degradations) != 0 {
		t.Fatalf("recovery outcome = %q degradations %v", got2.Stats.CacheOutcome, got2.Degradations)
	}
}

// TestCacheDeterminismGate is the cold/warm/incremental determinism
// gate over the example corpus and generated programs: an uncached
// compile, a cache-storing compile, a warm hit, and a hit through a
// reopened store must all carry one fingerprint.
func TestCacheDeterminismGate(t *testing.T) {
	srcs := map[string]string{}
	paths, err := filepath.Glob("examples/mc/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(data)
	}
	for _, seed := range []int64{2, 11, 29} {
		srcs[fmt.Sprintf("progen-%d", seed)] = progen.Source(progen.Params{Seed: seed, Barriers: true, Calls: seed%2 == 1})
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cc, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			conf := DefaultConfig()
			uncached, err := Compile(src, conf)
			if err != nil {
				t.Fatalf("uncached: %v", err)
			}
			want := uncached.Fingerprint()

			conf.Cache = cc
			cold, err := Compile(src, conf)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			warm, err := Compile(src, conf)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			cc2, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			conf.Cache = cc2
			incr, err := Compile(src, conf)
			if err != nil {
				t.Fatalf("incremental: %v", err)
			}
			if cold.Fingerprint() != want || warm.Fingerprint() != want || incr.Fingerprint() != want {
				t.Fatalf("fingerprints diverged: uncached %s cold %s warm %s incremental %s",
					want, cold.Fingerprint(), warm.Fingerprint(), incr.Fingerprint())
			}
			if warm.Stats.CacheOutcome != "hit" || incr.Stats.CacheOutcome != "hit" {
				t.Fatalf("outcomes: warm %q incremental %q", warm.Stats.CacheOutcome, incr.Stats.CacheOutcome)
			}
		})
	}
}
