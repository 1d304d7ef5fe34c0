package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"msc/internal/telemetry"
)

// MountDebug registers the standard Go diagnostics endpoints —
// /debug/pprof/* and /debug/vars — on mux. DebugServer uses it for its
// own mux; servers with their own listener (cmd/mscd) mount the same
// endpoints without mutating http.DefaultServeMux.
func MountDebug(mux *http.ServeMux) {
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugServer serves the standard Go diagnostics endpoints —
// /debug/pprof/* and /debug/vars — on its own mux so importing this
// package never mutates http.DefaultServeMux. MountMetrics adds a
// Prometheus /metrics endpoint over a telemetry registry.
type DebugServer struct {
	ln     net.Listener
	mux    *http.ServeMux
	srv    *http.Server
	cancel context.CancelFunc // cancels the base context of every request
	done   chan struct{}      // closed when the Serve goroutine exits
	once   sync.Once
	err    error
}

// StartDebugServer listens on addr (e.g. ":6060" or "127.0.0.1:0") and
// serves pprof and expvar in a background goroutine until Close.
func StartDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	MountDebug(mux)
	ctx, cancel := context.WithCancel(context.Background())
	s := &DebugServer{
		ln:     ln,
		mux:    mux,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	s.srv = &http.Server{
		Handler: mux,
		// Every request context derives from ctx, so Close unblocks
		// in-flight handlers that honor their request context.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// MountMetrics serves reg in Prometheus text exposition format at
// /metrics. Call it once per server; the registry may keep gaining
// metrics afterwards — every scrape snapshots the current state.
func (s *DebugServer) MountMetrics(reg *telemetry.Registry) {
	s.mux.Handle("/metrics", telemetry.Handler(reg))
}

// Handle registers an additional handler on the server's mux (tests
// and embedders extend the diagnostics surface this way). Register
// before traffic arrives; ServeMux forbids duplicate patterns.
func (s *DebugServer) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down: it cancels the base context (unblocking
// in-flight handlers that honor the request context), force-closes the
// listener and every active connection, and joins the listener
// goroutine before returning — no goroutine of the server outlives
// Close. Idempotent.
func (s *DebugServer) Close() error {
	s.once.Do(func() {
		s.cancel()
		s.err = s.srv.Close()
		<-s.done
	})
	return s.err
}
