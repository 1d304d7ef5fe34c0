// Command mscd serves meta-state conversion as an HTTP service: POST
// MIMDC source to /compile, get the compiled automaton (optionally
// executed) as JSON, with the compile error taxonomy mapped to typed
// error bodies and HTTP statuses. See docs/SERVICE.md for the API.
//
// The daemon is a thin shell around msc.CompileService: it adds the
// listener, flags, the /debug/pprof and /debug/vars mounts, and signal
// handling. SIGTERM/SIGINT starts a graceful drain — stop admitting,
// finish in-flight compiles, then shut the listener down — bounded by
// -drain. The exit code reports whether the drain was clean (0), was
// forced to cancel in-flight work (1), or left goroutines behind (1,
// checked with the faultinject leak checker).
//
// Usage:
//
//	mscd [-addr :8377] [-workers N] [-queue N] [-deadline 10s]
//	     [-max-states N] [-drain 15s] [-addr-file PATH] [-cache-dir DIR]
//
// -cache-dir enables the on-disk artifact cache (docs/CACHE.md):
// identical compile requests are served from the content-addressed
// store, concurrent identical compiles are deduplicated, and cache
// counters appear on /metrics and /statusz. A cache that fails to open
// is logged and the daemon serves uncached — the cache never gates
// availability.
//
// -addr-file writes the bound address (useful with -addr 127.0.0.1:0)
// so scripts can wait for the file instead of parsing logs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"msc"
	"msc/internal/faultinject"
	"msc/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8377", "listen address (use 127.0.0.1:0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "concurrent compile workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
	deadline := flag.Duration("deadline", 10*time.Second, "wall-clock ceiling for each compile and, as a fresh budget, each requested run (0 = none)")
	maxStates := flag.Int("max-states", 0, "per-compile meta-state ceiling (0 = none)")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	drain := flag.Duration("drain", 15*time.Second, "graceful drain bound on SIGTERM/SIGINT")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (empty = compile uncached)")
	flag.Parse()

	log.SetPrefix("mscd: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	// Register the signal handler before the leak baseline: os/signal
	// starts a process-lifetime watcher goroutine on first use, which
	// must not read as a leak of ours.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	// Baseline for the post-drain self-check, taken before any serving
	// goroutine exists.
	leak := faultinject.LeakCheckWithin(5 * time.Second)

	var cc *msc.Cache
	if *cacheDir != "" {
		opened, err := msc.OpenCache(*cacheDir)
		if err != nil {
			// Graceful degradation at boot: a broken cache directory must
			// not keep the service down.
			log.Printf("cache disabled (%v); serving uncached", err)
		} else {
			cc = opened
			log.Printf("artifact cache at %s (%d entries)", *cacheDir, cc.Stats().Entries)
		}
	}

	svc := msc.NewCompileService(msc.ServiceConfig{
		Workers:    *workers,
		QueueDepth: *queue,
		DefaultLimits: msc.Limits{
			Deadline:  *deadline,
			MaxStates: *maxStates,
		},
		MaxSourceBytes: *maxBody,
		DrainGrace:     5 * time.Second,
		Cache:          cc,
	})

	mux := http.NewServeMux()
	mux.Handle("/", svc)
	obs.MountDebug(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 2
	}
	if *addrFile != "" {
		// Write-then-rename so a waiting script never reads a partial
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Print(err)
			return 2
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			log.Print(err)
			return 2
		}
		defer os.Remove(*addrFile)
	}

	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	boot := finalStatus(svc)
	log.Printf("listening on %s (%d workers, queue %d, deadline %v)",
		ln.Addr(), boot.Workers, boot.QueueDepth, *deadline)

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		log.Printf("serve: %v", err)
		return 2
	}
	stop()

	log.Printf("draining (bound %v)", *drain)
	code := 0
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		log.Printf("drain: %v", err)
		code = 1
	}
	// The service is drained; now close the listener and any idle or
	// lingering connections.
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("shutdown: %v", err)
		srv.Close()
	}
	svc.Close()

	// Self-check: a clean drain leaves no compile or connection
	// goroutines behind.
	if err := leak(); err != nil {
		log.Printf("goroutine leak after drain: %v", err)
		code = 1
	}
	st := finalStatus(svc)
	log.Printf("drained: served=%d 2xx=%d 4xx=%d 5xx=%d rejected=%d goroutines=%d",
		st.Served, st.Status2xx, st.Status4xx, st.Status5xx, st.Rejected, st.Goroutines)
	if st.Cache != nil {
		log.Printf("cache: hits=%d misses=%d errors=%d quarantined=%d shared=%d entries=%d",
			st.Cache.Hits, st.Cache.Misses, st.Cache.Errors, st.Cache.Quarantined,
			st.Cache.SingleFlightShared, st.Cache.Entries)
	}
	if code == 0 {
		log.Print("clean exit")
	}
	return code
}

// finalStatus reads /statusz in-process for the exit log.
func finalStatus(svc *msc.CompileService) msc.ServiceStatus {
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
	var st msc.ServiceStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		log.Printf("statusz: %v", err)
	}
	return st
}
