package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"msc"
	"msc/internal/artifact"
	"msc/internal/cache"
	"msc/internal/harness"
	"msc/internal/telemetry"
)

// serveClass is a request class of the serve mix.
type serveClass int

const (
	classHit     serveClass = iota // a repeat of a program warmed during set-up: a cache read
	classFresh                     // a program never sent before: a miss that compiles and stores
	classInvalid                   // corrupted source: 400 "invalid"
	classBudget                    // a one-state budget: 429 "budget", or 200 with at most one meta state
	classRun                       // a repeat that also asks for a 16-PE SIMD run
)

var classNames = [...]string{"hit", "fresh", "invalid", "budget", "run"}

// serveMix is one round of the serve workload, in requests per class.
// The invalid and over-budget shares are mscload's defaults, 10% each.
// The rest is the benchmark's own choice, not a traffic measurement:
// mostly cache reads, a few SIMD runs, and 2% fresh misses that compile
// and write the store, the costliest class, so the p99 lands in the
// middle of their samples and cache writes set the tail.
var serveMix = [...]int{classHit: 140, classFresh: 4, classInvalid: 20, classBudget: 20, classRun: 16}

// freshBase is the warm program every fresh request varies. One base
// keeps a miss's cost the same from op to op, so the tail does not
// depend on which program missed. It is the costliest generated
// program of the warm pool: with a multi-millisecond compile in front
// of it, the store's fsync is a visible part of a miss but not one
// that swings the tail with the disk's mood.
const freshBase = "progen/calls-9007"

// serveRunN is the machine width the run class asks for; smallRun
// bounds the cycles of the programs it runs, so a run request stays
// small next to a compile.
const (
	serveRunN = 16
	smallRun  = 5000
)

// want is what a request's 200 response must report: the meta-state
// count the library compile of its program gives and, for the run
// class, the SIMD cycle count.
type want struct {
	meta   int
	cycles int64
}

// expect is the expectation table of the serve mix: mscload's status
// and error-kind rules, plus the compile result a repeated program must
// reproduce. Backpressure is a failure here: with as many clients as
// worker slots admission never queues.
func expect(class serveClass, status int, kind string, meta int, cycles int64, w want) error {
	ok := false
	switch class {
	case classHit, classFresh:
		ok = status == http.StatusOK && meta == w.meta
	case classRun:
		ok = status == http.StatusOK && meta == w.meta && cycles == w.cycles
	case classInvalid:
		ok = status == http.StatusBadRequest && kind == "invalid"
	case classBudget:
		ok = (status == http.StatusTooManyRequests && kind == "budget") ||
			(status == http.StatusOK && meta <= 1)
	}
	if ok {
		return nil
	}
	return fmt.Errorf("%s request: status %d kind %q meta states %d cycles %d, want meta states %d cycles %d",
		classNames[class], status, kind, meta, cycles, w.meta, w.cycles)
}

// warmProgram is a program of the warm pool.
type warmProgram struct {
	name string
	src  string
	want want
	// slots and cycles feed code_slots and simd_cycles: the program's
	// size and its cycles at the compile workloads' check width.
	slots  int
	cycles int64
	// side-store material for the traced phase's cache and artifact
	// calls (traced mode only).
	key     artifact.Key
	art     *artifact.Artifact
	encoded []byte
}

type serveEntry struct {
	class serveClass
	prog  int // index into warm
	body  []byte
}

// serveBench is the serve workload: msc.CompileService, the handler
// cmd/mscd serves, on a loopback listener with a fresh artifact cache,
// driven by nproc closed-loop clients over at most nproc connections.
type serveBench struct {
	seed    int64
	warm    []warmProgram
	entries []serveEntry
	url     string
	client  *http.Client
	srv     *http.Server
	served  chan error
	svc     *msc.CompileService
	dir     string // the caches' directory, removed by close
	fresh   atomic.Int64
	side    *cache.Store
	before  msc.CacheStats
	bytes   atomic.Int64 // traced: encoded artifact bytes
	encodes atomic.Int64
}

const (
	spanHeader = "Perfbench-Span"
	opHeader   = "Perfbench-Op"
)

func setupServe(e *env) (bench, error) {
	b := &serveBench{seed: e.seed}
	if err := b.pool(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.out, "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	cc, err := msc.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		b.close()
		return nil, err
	}
	b.svc = msc.NewCompileService(msc.ServiceConfig{Cache: cc})
	var h http.Handler = b.svc
	if e.trace != nil {
		h = tracedHandler(e.trace, b.svc)
		if b.side, err = cache.Open(filepath.Join(dir, "side")); err != nil {
			b.close()
			return nil, err
		}
		if err := b.sideArtifacts(); err != nil {
			b.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: h}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     e.clients,
		MaxIdleConnsPerHost: e.clients,
	}}
	// Warm-up: every warm program is compiled and stored once, then one
	// full round runs untimed, so connections, caches and code paths are
	// hot before the measured phase.
	for i, w := range b.warm {
		body := b.requestBody(serveEntry{class: classHit, prog: i})
		if _, err := b.send(-1, serveEntry{class: classHit, prog: i, body: body}, nil); err != nil {
			b.close()
			return nil, fmt.Errorf("warming %s: %w", w.name, err)
		}
	}
	for i := range b.entries {
		if _, err := b.op(-1, i, nil); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}
	st, err := b.status()
	if err != nil {
		b.close()
		return nil, err
	}
	b.before = *st.Cache
	return b, nil
}

// pool builds the warm pool, its expectations and the round's entries.
func (b *serveBench) pool() error {
	var progs []progEntry
	for _, w := range harness.BenchSuite() {
		progs = append(progs, progEntry{name: "suite/" + w.Name, src: w.Source, ia: w.InitialActive})
	}
	progs = append(progs, fleet()[:8]...)
	var runnable []int
	fresh := -1
	for _, p := range progs {
		if p.name == freshBase {
			fresh = len(b.warm)
		}
		c, err := msc.Compile(p.src, msc.DefaultConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if p.ia == 0 && p.spawns() {
			p.ia = 1
		}
		wp := warmProgram{name: p.name, src: p.src, want: want{meta: c.MetaStates()}, slots: programSlots(c.Program)}
		if res, err := c.RunSIMD(msc.RunConfig{N: checkN, InitialActive: p.ia, MaxSteps: checkSteps}); err == nil {
			wp.cycles = res.Time
		}
		if !p.spawns() {
			res, err := c.RunSIMD(msc.RunConfig{N: serveRunN})
			if err != nil {
				return fmt.Errorf("%s: run: %w", p.name, err)
			}
			wp.want.cycles = res.Time
			if res.Time <= smallRun {
				runnable = append(runnable, len(b.warm))
			}
		}
		b.warm = append(b.warm, wp)
	}
	if fresh < 0 {
		return fmt.Errorf("fresh base %s is not in the warm pool", freshBase)
	}
	for class, n := range serveMix {
		for i := 0; i < n; i++ {
			en := serveEntry{class: serveClass(class), prog: i % len(b.warm)}
			switch en.class {
			case classRun:
				en.prog = runnable[i%len(runnable)]
			case classFresh:
				en.prog = fresh
			}
			if en.class != classFresh {
				en.body = b.requestBody(en)
			}
			b.entries = append(b.entries, en)
		}
	}
	return nil
}

// requestBody is an entry's request. Fresh entries get their body per
// op instead: a unique comment makes every one a cache miss while its
// compile costs what its base program's does.
func (b *serveBench) requestBody(en serveEntry) []byte {
	src := b.warm[en.prog].src
	req := msc.CompileRequest{Source: src}
	switch en.class {
	case classInvalid:
		req.Source = strings.Replace(src, "{", "(", 1)
	case classBudget:
		req.Limits = &msc.WireLimits{MaxStates: 1}
	case classRun:
		req.Run = &msc.WireRun{Engine: "simd", N: serveRunN}
	case classFresh:
		req.Source = fmt.Sprintf("%s// fresh %d.%d\n", src, b.seed, b.fresh.Add(1))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // static request shapes always marshal
	}
	return body
}

func (b *serveBench) deck() []int {
	d := make([]int, len(b.entries))
	for i := range d {
		d[i] = i
	}
	return d
}

func (b *serveBench) entryName(e int) string {
	en := b.entries[e]
	return classNames[en.class] + " " + b.warm[en.prog].name
}

// counts covers the warm pool, the distinct programs the mix repeats;
// fresh programs are one-off variants of them.
func (b *serveBench) counts() (int64, int64) {
	var cycles, slots int64
	for _, w := range b.warm {
		cycles += w.cycles
		slots += int64(w.slots)
	}
	return cycles, slots
}

func (b *serveBench) op(seq, e int, tr *tracer) (time.Duration, error) {
	en := b.entries[e]
	if en.class == classFresh {
		en.body = b.requestBody(en)
	}
	r, err := b.send(seq, en, tr)
	if err != nil {
		return r.lat, err
	}
	if tr != nil {
		if err := b.sideCalls(tr, en); err != nil {
			return r.lat, err
		}
	}
	return r.lat, expect(en.class, r.status, r.kind, r.meta, r.cycles, b.warm[en.prog].want)
}

// reply is what a request got back.
type reply struct {
	lat    time.Duration
	status int
	kind   string // error kind of a non-200 reply
	meta   int
	cycles int64
}

// send posts one request and times it from the send to the decoded
// reply. In the traced phase the op span holds a service.wire span for
// the round trip, which holds the handler's service.handle span.
func (b *serveBench) send(seq int, en serveEntry, tr *tracer) (reply, error) {
	var r reply
	req, err := http.NewRequest(http.MethodPost, b.url+"/compile", bytes.NewReader(en.body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	root := tr.opSpan(seq)
	defer root.End()
	var wire *telemetry.Span
	if tr != nil {
		wire = root.StartChild("service.wire")
		req.Header.Set(spanHeader, strconv.FormatInt(int64(wire.ID), 10))
		req.Header.Set(opHeader, strconv.Itoa(seq))
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		wire.End()
		r.lat = time.Since(start)
		return r, fmt.Errorf("transport: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	wire.End()
	if err != nil {
		r.lat = time.Since(start)
		return r, fmt.Errorf("transport: %w", err)
	}
	r.status = resp.StatusCode
	if r.status == http.StatusOK {
		var cr msc.CompileResponse
		err = json.Unmarshal(data, &cr)
		r.meta = cr.MetaStates
		if cr.Run != nil {
			r.cycles = cr.Run.Cycles
		}
	} else {
		var eb msc.ErrorBody
		err = json.Unmarshal(data, &eb)
		r.kind = eb.Error
	}
	r.lat = time.Since(start)
	if err != nil {
		return r, fmt.Errorf("status %d with a body that is not JSON: %.120s", r.status, data)
	}
	return r, nil
}

// tracedHandler wraps the service so each request's time in the
// handler is a service.handle span under the client's wire span.
func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		s := tr.t.StartSpan("service.handle", telemetry.SpanID(parent), telemetry.Int("op", op))
		next.ServeHTTP(w, r)
		s.End()
	})
}

// sideArtifacts builds each warm program's artifact and stores it in
// the side store, for the traced phase's cache and artifact calls.
func (b *serveBench) sideArtifacts() error {
	for i := range b.warm {
		w := &b.warm[i]
		c, err := msc.Compile(w.src, msc.DefaultConfig())
		if err != nil {
			return err
		}
		stats, err := json.Marshal(c.Stats)
		if err != nil {
			return err
		}
		w.art = &artifact.Artifact{Graph: c.Graph, Automaton: c.Automaton, Program: c.Program, StatsJSON: stats}
		w.key = artifact.Key{SourceHash: sha256.Sum256([]byte(w.src))}
		if w.encoded, err = artifact.Encode(w.art, w.key); err != nil {
			return err
		}
		if err := b.side.Put(w.key, w.art); err != nil {
			return err
		}
	}
	return nil
}

// sideCalls times the cache and artifact entry points on the op's
// artifact in a store on the same filesystem, beside the op: reads for
// the classes the service answers from its cache, encode and a durable
// write for a miss. The service makes these calls inside its handler,
// where the benchmark cannot reach them. A call that fails, or a read
// that misses an entry stored during set-up, fails the op.
func (b *serveBench) sideCalls(tr *tracer, en serveEntry) error {
	w := &b.warm[en.prog]
	var err error
	switch en.class {
	case classHit, classRun:
		var a *artifact.Artifact
		tr.call(nil, "cache.get", func() { a, err = b.side.Get(w.key) })
		if err == nil && a == nil {
			err = errors.New("entry stored during set-up is gone")
		}
		if err == nil {
			tr.call(nil, "artifact.decode", func() { _, _, err = artifact.Decode(w.encoded) })
		}
	case classFresh:
		key := artifact.Key{SourceHash: sha256.Sum256([]byte(fmt.Sprintf("%s fresh %d", w.src, b.fresh.Add(1))))}
		var data []byte
		tr.call(nil, "artifact.encode", func() { data, err = artifact.Encode(w.art, key) })
		b.bytes.Add(int64(len(data)))
		b.encodes.Add(1)
		if err == nil {
			tr.call(nil, "cache.put", func() { err = b.side.Put(key, w.art) })
		}
	}
	if err != nil {
		return fmt.Errorf("side store: %w", err)
	}
	return nil
}

func (b *serveBench) status() (*msc.ServiceStatus, error) {
	resp, err := b.client.Get(b.url + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st msc.ServiceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	if st.Cache == nil {
		return nil, errors.New("/statusz reports no artifact cache")
	}
	return &st, nil
}

func (b *serveBench) layers(m map[string]metric, tr *tracer) error {
	lt, err := tracedLayers(m, tr)
	if err != nil {
		return err
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("service.handle_ms", lt.perOp("service.handle"))
	set("service.wire_ms", lt.perOp("service.wire"))
	set("artifact.encode_ms", lt.perOp("artifact.encode"))
	set("artifact.decode_ms", lt.perOp("artifact.decode"))
	if lt.ops > 0 {
		// Get decodes and Put encodes internally: their self time is
		// what is left after the separately timed decode and encode.
		get := lt.self["cache.get"] - lt.self["artifact.decode"]
		put := lt.self["cache.put"] - lt.self["artifact.encode"]
		set("cache.get_ms", ms(max(get, 0))/float64(lt.ops))
		set("cache.put_ms", ms(max(put, 0))/float64(lt.ops))
	}
	set("artifact.bytes", ratio(b.bytes.Load(), b.encodes.Load()))
	st, err := b.status()
	if err != nil {
		return err
	}
	hits := st.Cache.Hits - b.before.Hits
	misses := st.Cache.Misses - b.before.Misses
	set("cache.hit_ratio", ratio(hits, hits+misses))
	set("cache.errors", float64(st.Cache.Errors-b.before.Errors))
	return nil
}

func (b *serveBench) close() error {
	var errs []error
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, b.srv.Shutdown(ctx))
		cancel()
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if b.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, b.svc.Drain(ctx))
		cancel()
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.dir != "" {
		errs = append(errs, os.RemoveAll(b.dir))
	}
	b.srv, b.svc, b.client, b.dir = nil, nil, nil, ""
	return errors.Join(errs...)
}
