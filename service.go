package msc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msc/internal/obs"
	"msc/internal/simd"
	"msc/internal/telemetry"
)

// This file is the embeddable form of the mscd compile service: a
// plain http.Handler wrapping CompileContext with a bounded worker
// pool, an admission queue, the typed error taxonomy mapped to HTTP
// statuses, optional trace streaming, and deadline-bounded draining.
// cmd/mscd adds only the listener, flags, and signal handling, so the
// whole service surface is testable in-process without a socket. See
// docs/SERVICE.md for the HTTP API.

// ServiceConfig sizes and parameterizes a CompileService. The zero
// value gets production defaults.
type ServiceConfig struct {
	// Workers bounds how many compiles run concurrently (the worker
	// pool). 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker slot beyond the pool itself. A request arriving with the
	// queue full is rejected with 429. 0 means 4×Workers.
	QueueDepth int
	// DefaultLimits applies to requests that carry no limits of their
	// own. The zero value means unlimited (not recommended for a public
	// service; cmd/mscd defaults the deadline).
	DefaultLimits Limits
	// MaxSourceBytes caps the request body (413 beyond it). 0 means
	// 1 MiB.
	MaxSourceBytes int64
	// DrainGrace bounds how long Drain waits for canceled in-flight
	// compiles to unwind after the drain context expires. 0 means 5s.
	DrainGrace time.Duration
	// Registry, when non-nil, receives the service metrics (and the
	// compile metrics of every request) for one shared /metrics
	// exposition. Nil creates a private registry.
	Registry *telemetry.Registry
	// Cache, when non-nil, fronts every request's compile with the
	// artifact cache (Config.Cache semantics: content-addressed store,
	// single-flight dedup, graceful degradation). Each request's cache.*
	// counters land on /metrics with its compile counters, and a
	// snapshot is reported on /statusz. Draining interacts safely:
	// flights belong to in-flight requests, so Drain's wait drains the
	// flight table too.
	Cache *Cache
}

func (sc *ServiceConfig) fill() {
	if sc.Workers <= 0 {
		sc.Workers = runtime.GOMAXPROCS(0)
	}
	if sc.QueueDepth <= 0 {
		sc.QueueDepth = 4 * sc.Workers
	}
	if sc.MaxSourceBytes <= 0 {
		sc.MaxSourceBytes = 1 << 20
	}
	if sc.DrainGrace <= 0 {
		sc.DrainGrace = 5 * time.Second
	}
	if sc.Registry == nil {
		sc.Registry = telemetry.NewRegistry()
	}
}

// CompileService is the compile-as-a-service handler. Create with
// NewCompileService; serve it directly (it implements http.Handler) or
// mount it on a mux. All methods are safe for concurrent use.
type CompileService struct {
	cfg ServiceConfig
	mux *http.ServeMux

	sem     chan struct{} // worker slots
	waiting atomic.Int64  // requests queued for a slot

	drainOnce sync.Once
	drainCh   chan struct{} // closed when draining starts
	draining  atomic.Bool
	inflight  sync.WaitGroup

	killCtx    context.Context // canceled to abort in-flight compiles
	killCancel context.CancelFunc

	// statusz counters.
	served   atomic.Int64
	byClass  [6]atomic.Int64 // index = status/100
	rejected atomic.Int64    // 429 overloaded + 503 draining

	latency  *telemetry.Histogram
	inFlight *telemetry.Gauge
	queued   *telemetry.Gauge

	// responses holds the service.responses counter of each status
	// http.ResponseWriter.WriteHeader accepts (100-999), index =
	// status-100, resolved at the status's first response: a labeled
	// registry lookup allocates, and the series keep their
	// first-response order in /metrics.
	responses [900]atomic.Pointer[telemetry.Counter]
}

// NewCompileService builds the service and registers its metrics.
func NewCompileService(cfg ServiceConfig) *CompileService {
	cfg.fill()
	killCtx, killCancel := context.WithCancel(context.Background())
	s := &CompileService{
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.Workers),
		drainCh:    make(chan struct{}),
		killCtx:    killCtx,
		killCancel: killCancel,
		latency: cfg.Registry.Histogram("service.latency_ns",
			"request latency (ns)", latencyBuckets),
		inFlight: cfg.Registry.Gauge("service.in_flight", "requests being served"),
		queued:   cfg.Registry.Gauge("service.queue_waiting", "requests waiting for a worker slot"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.Handle("GET /metrics", s.metricsHandler())
	s.mux = mux
	return s
}

// Registry returns the registry carrying the service and compile
// metrics (the one /metrics serves).
func (s *CompileService) Registry() *telemetry.Registry { return s.cfg.Registry }

// ServeHTTP dispatches to the service endpoints.
func (s *CompileService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting new compiles and waits for the in-flight ones.
// When ctx expires first, the remaining compiles are canceled (they
// observe it at the next phase boundary or committed meta state) and
// Drain waits up to DrainGrace longer before reporting failure.
// Idempotent; concurrent calls all wait.
func (s *CompileService) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.killCancel()
	select {
	case <-done:
		return fmt.Errorf("msc: drain deadline exceeded; in-flight compiles were canceled")
	case <-time.After(s.cfg.DrainGrace):
		return fmt.Errorf("msc: drain failed: requests still in flight %v after cancellation", s.cfg.DrainGrace)
	}
}

// Close aborts all in-flight work immediately (Drain first for a
// graceful stop).
func (s *CompileService) Close() error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	s.killCancel()
	return nil
}

// ---- wire types ----------------------------------------------------

// CompileRequest is the POST /compile body. Absent config means
// DefaultConfig; absent limits means ServiceConfig.DefaultLimits.
type CompileRequest struct {
	Source string      `json:"source"`
	Config *WireConfig `json:"config,omitempty"`
	Limits *WireLimits `json:"limits,omitempty"`
	// Emit requests extra renderings of the compiled program: "mpl"
	// (Listing 5 text) and/or "dot" (automaton Graphviz).
	Emit []string `json:"emit,omitempty"`
	// Run optionally executes the program after compiling.
	Run *WireRun `json:"run,omitempty"`
}

// WireConfig is the JSON form of the Config knobs a client may set.
// Fields mirror Config; zero values mean off (not "default"), so a
// request that sends config gets exactly what it asked for.
type WireConfig struct {
	Compress       bool `json:"compress"`
	TimeSplit      bool `json:"time_split"`
	SplitDelta     int  `json:"split_delta,omitempty"`
	SplitPercent   int  `json:"split_percent,omitempty"`
	BarrierExact   bool `json:"barrier_exact"`
	ExpandCalls    bool `json:"expand_calls"`
	CSI            bool `json:"csi"`
	Hash           bool `json:"hash"`
	MaxStates      int  `json:"max_states,omitempty"`
	ConvertWorkers int  `json:"convert_workers,omitempty"`
	Vet            bool `json:"vet"`
	// Opt is the dataflow optimization level (0, 1, or 2); Verify runs
	// the cross-phase IR verifier between pipeline phases.
	Opt    int  `json:"opt,omitempty"`
	Verify bool `json:"verify,omitempty"`
}

// WireLimits is the JSON form of Limits (deadline in milliseconds).
type WireLimits struct {
	DeadlineMS       int64 `json:"deadline_ms,omitempty"`
	MaxStates        int   `json:"max_states,omitempty"`
	MaxCSICandidates int64 `json:"max_csi_candidates,omitempty"`
	MaxMemBytes      int64 `json:"max_mem_bytes,omitempty"`
}

// WireRun asks the service to execute the compiled program.
type WireRun struct {
	Engine   string `json:"engine"` // "simd" (default), "mimd", "interp"
	N        int    `json:"n"`      // machine width, default 16
	MaxSteps int    `json:"max_steps,omitempty"`
}

// CompileResponse is the POST /compile success body.
type CompileResponse struct {
	MetaStates   int           `json:"meta_states"`
	MIMDStates   int           `json:"mimd_states"`
	Stats        *CompileStats `json:"stats,omitempty"`
	Diagnostics  []Diagnostic  `json:"diagnostics,omitempty"`
	Degradations []DegradeStep `json:"degradations,omitempty"`
	MPL          string        `json:"mpl,omitempty"`
	Dot          string        `json:"dot,omitempty"`
	Run          *RunResponse  `json:"run,omitempty"`
}

// RunResponse reports an optional post-compile execution.
type RunResponse struct {
	Engine string `json:"engine"`
	N      int    `json:"n"`
	Cycles int64  `json:"cycles"`
}

// ErrorBody is the typed JSON error every non-2xx response carries.
// Error is the taxonomy kind: "invalid", "budget", "step_limit",
// "internal", "overloaded", "draining", or "canceled" (see the status
// table in docs/SERVICE.md).
type ErrorBody struct {
	Error    string `json:"error"`
	Message  string `json:"message"`
	Phase    string `json:"phase,omitempty"`
	Resource string `json:"resource,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Used     int64  `json:"used,omitempty"`
	Engine   string `json:"engine,omitempty"`
}

// classifyError maps the compile/run error taxonomy onto HTTP statuses.
// The typed checks come first: a wall-clock *BudgetError wraps
// context.DeadlineExceeded, and must classify as budget, not as a
// cancellation.
func classifyError(err error) (int, ErrorBody) {
	var ie *InternalError
	var be *BudgetError
	var se *StepLimitError
	var ce *CacheError
	switch {
	case errors.As(err, &ce):
		// Defense in depth: the cache layer absorbs its own failures and
		// falls through to a real compile, so a CacheError should never
		// escape CompileContext. If one ever does, it is the server's
		// fault, not the client's — 500, with the cache details kept in
		// the server log.
		return http.StatusInternalServerError, ErrorBody{
			Error:   "internal",
			Message: "internal cache error (details in server log)",
		}
	case errors.As(err, &ie):
		// Contained panic: report the phase, never the stack or the
		// panic value (internals stay in the server log).
		return http.StatusInternalServerError, ErrorBody{
			Error:   "internal",
			Message: fmt.Sprintf("internal error in %s (contained panic; details in server log)", ie.Phase),
			Phase:   ie.Phase,
		}
	case errors.As(err, &be):
		return http.StatusTooManyRequests, ErrorBody{
			Error:    "budget",
			Message:  be.Error(),
			Phase:    be.Phase,
			Resource: be.Resource,
			Limit:    be.Limit,
			Used:     be.Used,
		}
	case errors.As(err, &se):
		return http.StatusUnprocessableEntity, ErrorBody{
			Error:   "step_limit",
			Message: se.Error(),
			Engine:  se.Engine,
			Limit:   se.Limit,
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The request context died (client gone or drain kill); 503 so
		// a retry elsewhere is the documented move.
		return http.StatusServiceUnavailable, ErrorBody{Error: "canceled", Message: err.Error()}
	case strings.Contains(err.Error(), "internal error"):
		return http.StatusInternalServerError, ErrorBody{
			Error:   "internal",
			Message: "internal compiler error (details in server log)",
		}
	default:
		// Parse, analyze, vet, and validation failures: the input's
		// fault.
		return http.StatusBadRequest, ErrorBody{Error: "invalid", Message: err.Error()}
	}
}

// ---- request handling ----------------------------------------------

func (s *CompileService) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	s.count(status)
}

func (s *CompileService) count(status int) {
	s.served.Add(1)
	if c := status / 100; c >= 0 && c < len(s.byClass) {
		s.byClass[c].Add(1)
	}
	p := &s.responses[status-100]
	c := p.Load()
	if c == nil {
		c = s.cfg.Registry.Counter("service.responses", "responses by status",
			telemetry.Label{Name: "status", Value: strconv.Itoa(status)})
		p.Store(c)
	}
	c.Add(1)
}

// admit reserves a worker slot, queueing up to QueueDepth requests.
// It reports the reservation, or writes the rejection and reports
// false.
func (s *CompileService) admit(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusTooManyRequests, ErrorBody{
			Error:   "overloaded",
			Message: fmt.Sprintf("admission queue full (%d workers, %d queued); retry later", s.cfg.Workers, s.cfg.QueueDepth),
		})
		return false
	}
	s.queued.Add(1)
	defer func() { s.queued.Add(-1); s.waiting.Add(-1) }()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-s.drainCh:
		s.rejected.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: "draining", Message: "server is draining; retry elsewhere",
		})
		return false
	case <-r.Context().Done():
		// Client gave up while queued; nothing to write.
		s.count(httpStatusClientClosed)
		return false
	}
}

// httpStatusClientClosed is the nginx-convention 499 for "client closed
// request": nothing was written, the status only feeds the counters.
const httpStatusClientClosed = 499

func (s *CompileService) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.latency.Observe(time.Since(start).Nanoseconds()) }()

	if s.draining.Load() {
		s.rejected.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: "draining", Message: "server is draining; retry elsewhere",
		})
		return
	}
	// Register with the drain waitgroup, rechecking the flag after: a
	// drain that started between the check above and the Add must not
	// strand this request outside the wait.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		s.rejected.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: "draining", Message: "server is draining; retry elsewhere",
		})
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes))
	if err != nil {
		status := http.StatusBadRequest
		kind := "invalid"
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
			kind = "too_large"
		}
		s.writeJSON(w, status, ErrorBody{Error: kind, Message: err.Error()})
		return
	}
	var req CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: "invalid", Message: "request body is not valid JSON: " + err.Error(),
		})
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: "invalid", Message: `request is missing "source"`,
		})
		return
	}
	conf, err := s.requestConfig(&req, r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "invalid", Message: err.Error()})
		return
	}

	if !s.admit(w, r) {
		return
	}
	defer func() { <-s.sem }()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// The compile context dies with the client, and with the drain
	// kill switch once the drain deadline passes.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.killCtx, cancel)
	defer stop()

	if r.URL.Query().Get("trace") == "1" {
		s.compileStreaming(ctx, w, &req, conf)
		return
	}

	resp, err := s.compileOne(ctx, &req, conf, nil)
	if err != nil {
		if r.Context().Err() != nil {
			// Client is gone; the write would be wasted. Count it as a
			// client-closed request, not a service failure.
			s.count(httpStatusClientClosed)
			return
		}
		status, body := classifyError(err)
		s.writeJSON(w, status, body)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// maxRunWidth is the widest run.n a service request may ask for. Every
// engine sizes its PE memory from the width before the first step; the
// ceiling is simd.ObsWidthCap, the widest SIMD run the ?trace=1 path
// accepts.
const maxRunWidth = simd.ObsWidthCap

// maxRunMemBytes bounds a run's PE memory: the width times the words
// per PE the chosen engine sizes, 8 bytes each. The words are known
// only after the compile, so runOne refuses a run past the ceiling
// before the engine allocates.
const maxRunMemBytes = 1 << 30

// requestConfig assembles the effective Config for one request. It
// also checks the optional run against the service's run ceilings,
// clamping run.max_steps to DefaultMaxSteps in place, so a request is
// refused or capped before it is admitted.
func (s *CompileService) requestConfig(req *CompileRequest, r *http.Request) (Config, error) {
	conf := DefaultConfig()
	if req.Config != nil {
		wc := req.Config
		conf = Config{
			Compress: wc.Compress, TimeSplit: wc.TimeSplit,
			SplitDelta: wc.SplitDelta, SplitPercent: wc.SplitPercent,
			BarrierExact: wc.BarrierExact, ExpandCalls: wc.ExpandCalls,
			CSI: wc.CSI, Hash: wc.Hash,
			MaxStates: wc.MaxStates, ConvertWorkers: wc.ConvertWorkers,
			Vet: wc.Vet, Opt: wc.Opt, Verify: wc.Verify,
		}
	}
	conf.Limits = s.cfg.DefaultLimits
	if req.Limits != nil {
		wl := req.Limits
		conf.Limits = Limits{
			Deadline:         time.Duration(wl.DeadlineMS) * time.Millisecond,
			MaxStates:        wl.MaxStates,
			MaxCSICandidates: wl.MaxCSICandidates,
			MaxMemBytes:      wl.MaxMemBytes,
		}
		// A service must keep its own ceiling: request limits may
		// tighten the defaults, never exceed them.
		ceil := s.cfg.DefaultLimits
		conf.Limits.Deadline = clampLimit(conf.Limits.Deadline, ceil.Deadline)
		conf.Limits.MaxStates = clampLimit(conf.Limits.MaxStates, ceil.MaxStates)
		conf.Limits.MaxCSICandidates = clampLimit(conf.Limits.MaxCSICandidates, ceil.MaxCSICandidates)
		conf.Limits.MaxMemBytes = clampLimit(conf.Limits.MaxMemBytes, ceil.MaxMemBytes)
	}
	conf.Degrade = r.URL.Query().Get("degrade") == "1"
	conf.Metrics = s.cfg.Registry
	conf.Cache = s.cfg.Cache
	if err := conf.Validate(); err != nil {
		return Config{}, err
	}
	if wr := req.Run; wr != nil {
		if e := wr.Engine; e != "" && e != "simd" && e != "mimd" && e != "interp" {
			return Config{}, fmt.Errorf("msc: run.engine must be simd, mimd, or interp, got %q", e)
		}
		if wr.N > maxRunWidth {
			return Config{}, fmt.Errorf("msc: run.n %d exceeds the service's width ceiling of %d PEs", wr.N, maxRunWidth)
		}
		if wr.MaxSteps < 0 {
			return Config{}, fmt.Errorf("msc: run.max_steps must be >= 0 (0 means the default of %d), got %d", DefaultMaxSteps, wr.MaxSteps)
		}
		wr.MaxSteps = clampLimit(wr.MaxSteps, DefaultMaxSteps)
	}
	for _, e := range req.Emit {
		if e != "mpl" && e != "dot" {
			return Config{}, fmt.Errorf("msc: emit must be mpl or dot, got %q", e)
		}
	}
	return conf, nil
}

// clampLimit keeps a request's limit v within the service ceiling c.
// A non-positive value means unlimited (or, for MaxStates, the config
// default) on either side, so it takes the ceiling when one is set.
func clampLimit[T int | int64 | time.Duration](v, c T) T {
	if c > 0 && (v <= 0 || v > c) {
		return c
	}
	return v
}

// compileOne runs one request through the pipeline (and the optional
// engine run) and shapes the response. sink, when non-nil, receives the
// SIMD engine's typed trace events (the streaming path).
func (s *CompileService) compileOne(ctx context.Context, req *CompileRequest, conf Config, sink obs.Sink) (*CompileResponse, error) {
	c, err := CompileContext(ctx, req.Source, conf)
	if err != nil {
		return nil, err
	}
	resp := &CompileResponse{
		MetaStates:   c.MetaStates(),
		MIMDStates:   c.MIMDStates(),
		Stats:        c.Stats,
		Diagnostics:  c.Diagnostics,
		Degradations: c.Degradations,
	}
	for _, e := range req.Emit {
		switch e {
		case "mpl":
			resp.MPL = c.MPL()
		case "dot":
			resp.Dot = c.DotAutomaton("automaton")
		}
	}
	if req.Run != nil {
		rr, err := s.runOne(ctx, c, req.Run, conf.Limits.Deadline, sink)
		if err != nil {
			return nil, err
		}
		resp.Run = rr
	}
	return resp, nil
}

// runOne executes the optional post-compile run. A run past the memory
// ceiling is refused before the engine allocates, and a positive
// deadline bounds the run as a fresh wall-clock budget, as a degrade
// attempt gets one. sink, when non-nil, receives the SIMD engine's
// typed trace events (the streaming path).
func (s *CompileService) runOne(ctx context.Context, c *Compiled, wr *WireRun, deadline time.Duration, sink obs.Sink) (*RunResponse, error) {
	rc := RunConfig{N: wr.N, MaxSteps: wr.MaxSteps, Metrics: s.cfg.Registry}
	if rc.N <= 0 {
		rc.N = 16
	}
	engine := wr.Engine
	if engine == "" {
		engine = "simd"
	}
	// The SIMD engine sizes the program's words per PE; mimd and interp
	// run the MIMD state graph.
	words := c.Graph.Words
	if engine == "simd" {
		words = c.Program.Words
	}
	const wordBytes = 8 // ir.Word
	if words > 0 && int64(rc.N) > maxRunMemBytes/wordBytes/int64(words) {
		return nil, fmt.Errorf("msc: run of %d PEs × %d words per PE exceeds the service's run memory ceiling of %d bytes",
			rc.N, words, maxRunMemBytes)
	}

	start := time.Now()
	ctx, cancel, ownDeadline := withWallClock(ctx, deadline)
	defer cancel()
	runErr := func(err error) error {
		if ownDeadline && errors.Is(err, context.DeadlineExceeded) {
			s.cfg.Registry.Counter(obs.BudgetCounterPrefix+"wall_clock", "").Add(1)
			return wallClockOverrun("run", deadline, start)
		}
		return err
	}
	var cycles int64
	switch engine {
	case "simd":
		rc.Sink = sink
		res, err := c.RunSIMDContext(ctx, rc)
		if err != nil {
			return nil, runErr(err)
		}
		cycles = res.Time
	case "mimd":
		res, err := c.RunMIMDContext(ctx, rc)
		if err != nil {
			return nil, runErr(err)
		}
		cycles = res.Time
	default:
		res, err := c.RunInterpContext(ctx, rc)
		if err != nil {
			return nil, runErr(err)
		}
		cycles = res.Time
	}
	return &RunResponse{Engine: engine, N: rc.N, Cycles: cycles}, nil
}

// ---- trace streaming -----------------------------------------------

// lockedFlushWriter serializes writes from the span exporter goroutine
// and the handler, flushing each chunk so the client sees spans live.
type lockedFlushWriter struct {
	mu sync.Mutex
	w  io.Writer
	f  http.Flusher
}

func (l *lockedFlushWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.w.Write(p)
	if l.f != nil {
		l.f.Flush()
	}
	return n, err
}

// streamEnvelope frames the NDJSON stream: span lines carry the
// compile's span tree as it unfolds (telemetry JSONL span objects
// under "span"), event lines carry engine trace events, and the final
// line is exactly one of "done" or "fail".
type streamEnvelope struct {
	Span  json.RawMessage  `json:"span,omitempty"`
	Event json.RawMessage  `json:"event,omitempty"`
	Done  *CompileResponse `json:"done,omitempty"`
	Fail  *ErrorBody       `json:"fail,omitempty"`
}

// envelopeWriter wraps raw JSONL lines from the exporter/sink into
// stream envelopes under the given key.
type envelopeWriter struct {
	out io.Writer
	key string
}

func (e *envelopeWriter) Write(p []byte) (int, error) {
	line := strings.TrimRight(string(p), "\n")
	if line == "" {
		return len(p), nil
	}
	var env streamEnvelope
	switch e.key {
	case "span":
		env.Span = json.RawMessage(line)
	default:
		env.Event = json.RawMessage(line)
	}
	b, err := json.Marshal(env)
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	if _, err := e.out.Write(b); err != nil {
		return 0, err
	}
	return len(p), nil
}

// compileStreaming serves ?trace=1: an NDJSON stream of compile spans
// (and engine events when a run is requested), closed by a done/fail
// envelope. The HTTP status is always 200 — the outcome travels in the
// final envelope, as with any streaming protocol.
func (s *CompileService) compileStreaming(ctx context.Context, w http.ResponseWriter, req *CompileRequest, conf Config) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	out := &lockedFlushWriter{w: w, f: flusher}

	tracer := telemetry.NewTracer()
	exporter := telemetry.NewStreamExporter(tracer, &envelopeWriter{out: out, key: "span"})
	tracer.Exporter = exporter
	conf.Tracer = tracer

	sink := obs.NewSyncSink(&obs.JSONLSink{W: &envelopeWriter{out: out, key: "event"}})
	resp, err := s.compileOne(ctx, req, conf, sink)
	// Flush every span the compile produced before the final envelope,
	// so "done"/"fail" is genuinely the last line.
	exporter.Close()

	enc := json.NewEncoder(out)
	if err != nil {
		status, body := classifyError(err)
		enc.Encode(streamEnvelope{Fail: &body})
		s.count(status)
		return
	}
	enc.Encode(streamEnvelope{Done: resp})
	s.count(http.StatusOK)
}

// ---- health and introspection --------------------------------------

func (s *CompileService) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *CompileService) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// ServiceStatus is the GET /statusz body: a point-in-time snapshot of
// process and admission state (the load generator polls it for
// goroutine/RSS ceilings).
type ServiceStatus struct {
	Goroutines int   `json:"goroutines"`
	RSSBytes   int64 `json:"rss_bytes"`
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`
	Queued     int64 `json:"queued"`
	Draining   bool  `json:"draining"`
	Served     int64 `json:"served"`
	Status2xx  int64 `json:"status_2xx"`
	Status4xx  int64 `json:"status_4xx"`
	Status5xx  int64 `json:"status_5xx"`
	Rejected   int64 `json:"rejected"`
	// Cache is the artifact-cache snapshot, absent when the service
	// compiles uncached. The load generator's hit-ratio assertions read
	// these numbers.
	Cache *CacheStats `json:"cache,omitempty"`
}

func (s *CompileService) status() ServiceStatus {
	var cs *CacheStats
	if s.cfg.Cache != nil {
		snap := s.cfg.Cache.Stats()
		cs = &snap
	}
	return ServiceStatus{
		Cache:      cs,
		Goroutines: runtime.NumGoroutine(),
		RSSBytes:   readRSSBytes(),
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		InFlight:   s.inFlight.Value(),
		Queued:     s.queued.Value(),
		Draining:   s.draining.Load(),
		Served:     s.served.Load(),
		Status2xx:  s.byClass[2].Load(),
		Status4xx:  s.byClass[4].Load(),
		Status5xx:  s.byClass[5].Load(),
		Rejected:   s.rejected.Load(),
	}
}

func (s *CompileService) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(s.status())
}

// metricsHandler serves the registry in Prometheus form, refreshing
// the process gauges at scrape time.
func (s *CompileService) metricsHandler() http.Handler {
	reg := s.cfg.Registry
	goroutines := reg.Gauge("proc.goroutines", "live goroutines")
	rss := reg.Gauge("proc.rss_bytes", "resident set size (bytes)")
	inner := telemetry.Handler(reg)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		goroutines.Set(int64(runtime.NumGoroutine()))
		rss.Set(readRSSBytes())
		inner.ServeHTTP(w, r)
	})
}

// readRSSBytes reads the resident set size from /proc/self/statm
// (Linux); 0 where unavailable.
func readRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
