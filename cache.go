package msc

// The artifact-cache front end for the compile pipeline: Config.Cache
// routes CompileContext through an on-disk content-addressed store
// (internal/cache) of codec-encoded compile results (internal/artifact),
// with single-flight deduplication of concurrent identical compiles.
// The cache is strictly an accelerator — every failure in this file
// degrades to a real compile, recorded but never fatal. docs/CACHE.md
// is the design document.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"msc/internal/artifact"
	"msc/internal/cache"
	"msc/internal/ir"
	"msc/internal/mscerr"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// Cache is an open artifact cache usable from any number of goroutines
// and Configs. It wraps the on-disk store with the compile-level
// concerns: key derivation from (source, Config), single-flight
// deduplication, Compiled↔artifact conversion, and graceful
// degradation bookkeeping.
type Cache struct {
	store *cache.Store

	mu      sync.Mutex
	flights map[string]*flight

	shared atomic.Int64 // single-flight results served to waiters
}

// flight is one in-progress compile of a particular cache key. Waiters
// block on done; the leader fills c/err and reports whether it failed
// only because its own context died (waiters then retry rather than
// inheriting a cancellation that was never theirs).
type flight struct {
	done     chan struct{}
	c        *Compiled
	err      error
	canceled bool
}

// OpenCache opens (creating if needed) the artifact cache rooted at
// dir. The error is a *CacheError; callers that want "cache if
// possible" semantics can log it and compile with Config.Cache nil.
func OpenCache(dir string) (*Cache, error) {
	s, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Cache{store: s, flights: make(map[string]*flight)}, nil
}

// Dir returns the cache's root directory.
func (cc *Cache) Dir() string { return cc.store.Dir() }

// CacheStats is a point-in-time view of a Cache: the store's counters
// plus the compile-level single-flight numbers.
type CacheStats struct {
	Hits               int64  `json:"hits"`
	Misses             int64  `json:"misses"`
	Errors             int64  `json:"errors"`
	Quarantined        int64  `json:"quarantined"`
	Entries            int    `json:"entries"`
	Generation         uint64 `json:"generation"`
	SingleFlightShared int64  `json:"singleflight_shared"`
	ActiveFlights      int    `json:"active_flights"`
}

// Stats returns the current counters.
func (cc *Cache) Stats() CacheStats {
	st := cc.store.Stats()
	cc.mu.Lock()
	active := len(cc.flights)
	cc.mu.Unlock()
	return CacheStats{
		Hits:               st.Hits,
		Misses:             st.Misses,
		Errors:             st.Errors,
		Quarantined:        st.Quarantined,
		Entries:            st.Entries,
		Generation:         st.Generation,
		SingleFlightShared: cc.shared.Load(),
		ActiveFlights:      active,
	}
}

// activeFlights reports in-progress single-flight compiles (tests use
// it to prove flights never leak, even across leader cancellation).
func (cc *Cache) activeFlights() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.flights)
}

// cacheKey derives the content address of a compile: the SHA-256 of the
// source and the fingerprint of every result-affecting Config knob.
func cacheKey(source string, conf Config) artifact.Key {
	return artifact.Key{
		SourceHash: sha256.Sum256([]byte(source)),
		ConfigFP:   configFingerprint(conf),
	}
}

// configFingerprint hashes the Config fields that can change the
// compiled result. It hashes the *effective* conversion options (via
// conversionOptions, the same helper the pipeline uses) so the
// fingerprint cannot drift from what the converter actually does, plus
// the front-end and codegen knobs. Vet participates because a Vet=true
// request must not be satisfied by a Vet=false success cached for a
// program with error-severity diagnostics. Deliberately excluded:
// ConvertWorkers (the automaton is byte-identical for any worker
// count), Verify (checks invariants, changes nothing), Limits.Deadline
// and Degrade (degraded results are never stored), and the
// observability hooks.
func configFingerprint(conf Config) [32]byte {
	mopt := conversionOptions(conf)
	h := sha256.New()
	fmt.Fprintf(h, "fp1|compress=%t|merge=%t|timesplit=%t|delta=%d|pct=%d|bexact=%t|maxstates=%d|restarts=%d|retsubsets=%d|mem=%d|expand=%t|csi=%t|maxcsi=%d|hash=%t|opt=%d|vet=%t",
		mopt.Compress, mopt.MergeSubsets, mopt.TimeSplit, mopt.SplitDelta,
		mopt.SplitPercent, mopt.BarrierExact, mopt.MaxStates, mopt.MaxRestarts,
		mopt.MaxRetSubsets, mopt.MaxMemBytes,
		conf.ExpandCalls, conf.CSI, conf.Limits.MaxCSICandidates, conf.Hash, conf.Opt, conf.Vet)
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

// Fingerprint returns the hex digest of the compile result itself —
// graph, automaton, and SIMD program, stats excluded — so tests and the
// determinism gate can assert cold, warm, and recovered compiles are
// byte-identical.
func (c *Compiled) Fingerprint() string {
	return artifact.Fingerprint(&artifact.Artifact{
		Graph:     c.Graph,
		Automaton: c.Automaton,
		Program:   c.Program,
	})
}

// compile is the cached CompileContext: single-flight around
// (store lookup → real compile → store write-back), recording the
// cache.* counters into the call's recorder rec.
func (cc *Cache) compile(ctx context.Context, source string, conf Config, rec *obs.Recorder) (*Compiled, error) {
	key := cacheKey(source, conf)
	name := cache.Name(key)
	for {
		cc.mu.Lock()
		if fl, ok := cc.flights[name]; ok {
			cc.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err != nil {
					if fl.canceled && ctx.Err() == nil {
						// The leader died of its own cancellation; this
						// waiter's context is still live, so it promotes
						// itself to leader and compiles.
						continue
					}
					return nil, fl.err
				}
				rec.Add(obs.CounterCacheShared, 1)
				cc.shared.Add(1)
				return fl.c.sharedCopy(), nil
			case <-ctx.Done():
				return nil, fmt.Errorf("msc: canceled waiting for in-flight compile: %w", ctx.Err())
			}
		}
		fl := &flight{done: make(chan struct{})}
		cc.flights[name] = fl
		cc.mu.Unlock()

		c, err := cc.leaderCompile(ctx, source, conf, rec, key, name)
		fl.c, fl.err = c, err
		fl.canceled = err != nil && ctx.Err() != nil
		cc.mu.Lock()
		delete(cc.flights, name)
		cc.mu.Unlock()
		close(fl.done)
		return c, err
	}
}

// leaderCompile does the real work of one flight: consult the store,
// fall through to the pipeline on anything but a verified hit, and
// store the result back when it is cacheable.
func (cc *Cache) leaderCompile(ctx context.Context, source string, conf Config, rec *obs.Recorder, key artifact.Key, name string) (*Compiled, error) {
	var cacheErrs []string
	absorb := func(err error) {
		cacheErrs = append(cacheErrs, err.Error())
		rec.Add(obs.CounterCacheErrors, 1)
		var ce *mscerr.CacheError
		if errors.As(err, &ce) && ce.Op == "quarantine" {
			rec.Add(obs.CounterCacheQuarantined, 1)
		}
	}

	a, err := cc.store.Get(key)
	switch {
	case err != nil:
		absorb(err)
	case a != nil:
		c, derr := artifactToCompiled(a, source, conf)
		if derr == nil {
			rec.Add(obs.CounterCacheHits, 1)
			span := conf.Tracer.StartSpan("compile", conf.TraceParent,
				telemetry.Int("source_bytes", int64(len(source))))
			span.Event("cache_hit", telemetry.String("key", name))
			span.End()
			c.Stats.CacheOutcome = "hit"
			c.Stats.CacheErrors = cacheErrs
			return c, nil
		}
		// The stream verified but would not rehydrate — a codec bug or
		// a schema drift the version failed to catch. Absorb and compile.
		absorb(&mscerr.CacheError{Op: "decode", Key: name, Err: derr})
	default:
		rec.Add(obs.CounterCacheMisses, 1)
	}

	c, err := compileFull(ctx, source, conf, rec)
	if err != nil {
		return nil, err
	}
	c.Stats.CacheOutcome = "uncached"
	if len(c.Degradations) == 0 {
		// Degraded results are never stored: they reflect this process's
		// budget pressure, not the (source, config) identity, and caching
		// one would serve a cheaper automaton to an unconstrained caller.
		if art, aerr := compiledToArtifact(c); aerr != nil {
			absorb(&mscerr.CacheError{Op: "encode", Key: name, Err: aerr})
		} else if perr := cc.store.Put(key, art); perr != nil {
			absorb(perr)
		} else {
			rec.Add(obs.CounterCacheStores, 1)
			c.Stats.CacheOutcome = "stored"
		}
	}
	c.Stats.CacheErrors = cacheErrs
	return c, nil
}

// sharedCopy returns the shallow copy handed to a single-flight waiter:
// same immutable compile results, own Stats so the outcome annotation
// does not race with the leader's copy.
func (c *Compiled) sharedCopy() *Compiled {
	cp := *c
	if c.Stats != nil {
		st := *c.Stats
		st.CacheOutcome = "singleflight-shared"
		cp.Stats = &st
	}
	return &cp
}

// cachedMeta is the stats-section payload: everything about a Compiled
// that is not covered by the graph/automaton/program sections.
// Diagnostics need the wrapper because Diagnostic.Sev is deliberately
// excluded from its JSON form (`json:"-"`) — the service renders
// severity as a label — but a cache hit must restore it exactly.
type cachedMeta struct {
	Stats       *CompileStats `json:"stats"`
	Diagnostics []cachedDiag  `json:"diagnostics,omitempty"`
}

type cachedDiag struct {
	Pos   ir.Pos `json:"pos"`
	Sev   uint8  `json:"sev"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// compiledToArtifact packages a fresh compile for storage. Only
// undegraded results reach here, so Degradations is not serialized.
func compiledToArtifact(c *Compiled) (*artifact.Artifact, error) {
	meta := cachedMeta{Stats: c.Stats}
	for _, d := range c.Diagnostics {
		meta.Diagnostics = append(meta.Diagnostics, cachedDiag{
			Pos: d.Pos, Sev: uint8(d.Sev), Check: d.Check, Msg: d.Msg,
		})
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	return &artifact.Artifact{
		Graph:     c.Graph,
		Automaton: c.Automaton,
		Program:   c.Program,
		StatsJSON: blob,
	}, nil
}

// artifactToCompiled rehydrates a stored compile for the requesting
// caller. The AST is the one pipeline product the codec does not carry
// — nothing downstream of compilation uses it — so hits return a
// Compiled with AST nil (documented on Config.Cache).
func artifactToCompiled(a *artifact.Artifact, source string, conf Config) (*Compiled, error) {
	var meta cachedMeta
	if err := json.Unmarshal(a.StatsJSON, &meta); err != nil {
		return nil, fmt.Errorf("stats blob: %w", err)
	}
	if meta.Stats == nil {
		meta.Stats = &CompileStats{}
	}
	c := &Compiled{
		Source:    source,
		Graph:     a.Graph,
		Automaton: a.Automaton,
		Program:   a.Program,
		Config:    conf,
		Stats:     meta.Stats,
	}
	for _, d := range meta.Diagnostics {
		c.Diagnostics = append(c.Diagnostics, Diagnostic{
			Pos: d.Pos, Sev: Severity(d.Sev), Check: d.Check, Msg: d.Msg,
		})
	}
	return c, nil
}
