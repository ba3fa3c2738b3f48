// Command ivmserved is the long-running bandwidth service: it answers
// "what is the effective bandwidth of this configuration" over
// HTTP/JSON through the same sweep engine as ivmsweep, so served
// results are byte-identical to the sweep tables. Endpoints
// (docs/SERVING.md is the full reference):
//
//	POST /v1/bandwidth   one fixed-placement spec -> b_eff + provenance
//	POST /v1/batch       many specs amortised over the worker pool
//	GET  /v1/sweep?...   a stride pair's start sweep, streamed NDJSON
//	GET  /healthz        liveness + persistent-store integrity
//	GET  /metrics        Prometheus exposition: ivmserved_* request,
//	                     latency and hit-path counters (including the
//	                     ivmserved_request_duration_seconds histogram)
//	                     beside the engine's ivm_sweep_* metrics
//	GET  /statusz        human-readable state: traffic, latency
//	                     quantiles, hit rates, recent slow requests
//	GET  /debug/requests.trace  recent requests as a Chrome trace
//
// Every request is traced: an incoming X-Request-ID is honored
// (minted when absent) and echoed on the response, and the request's
// phase spans (decode, gate, canonicalise, cache-probe, simulate,
// encode) are recorded into the trace export. With -access-log each
// request also writes one JSON line (id, endpoint, status, answer
// path, theorem, latency); requests over -slow-ms are logged at WARN
// with their span breakdown and surface on /statusz.
//
// With -cache-dir the canonical-key cache persists across restarts:
// records load on start (warm start — previously simulated orbits
// answer with path=cache immediately), new simulations append to the
// store's checksummed log, and -sync bounds how much a crash can
// lose. A corrupt or truncated log tail is skipped with a logged
// count, never a crash. Warm-start sets can also be produced offline
// with ivmsweep -cache-export.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address (host:port; :0 picks an ephemeral port)")
	cacheDir := flag.String("cache-dir", "", "persistent cache store directory: load on start, append new simulations, survive restarts")
	cacheSize := flag.Int("cache", 0, "in-RAM cyclic-state cache entries; 0 sizes automatically (at least the default, grown to hold the store)")
	workers := flag.Int("workers", 0, "resolver worker goroutines; 0 selects GOMAXPROCS")
	syncEvery := flag.Duration("sync", 5*time.Second, "fsync interval for the persistent store's log")
	accessLog := flag.String("access-log", "", "write a JSON access log (one line per request) to this file; \"-\" for stderr")
	slowMS := flag.Int("slow-ms", 0, "log requests slower than this many milliseconds at WARN with their span breakdown and keep them on /statusz; 0 disables")
	flag.Parse()

	opt := serve.Options{
		Workers:       *workers,
		CacheSize:     *cacheSize,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	}
	if *accessLog != "" {
		logW := os.Stderr
		if *accessLog != "-" {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail("ivmserved: access log: %v", err)
			}
			defer f.Close()
			logW = f
		}
		opt.AccessLog = slog.New(slog.NewJSONHandler(logW, nil))
	}
	var store *cachestore.Store
	if *cacheDir != "" {
		var err error
		store, err = cachestore.Open(*cacheDir)
		if err != nil {
			fail("%v", err)
		}
		defer store.Close()
		if skipped, bytes := store.Skipped(); skipped > 0 {
			fmt.Fprintf(os.Stderr, "ivmserved: %s: skipped %d corrupt tail record(s), %d byte(s) truncated\n",
				store.Path(), skipped, bytes)
		}
		if *syncEvery > 0 {
			store.AutoSync(*syncEvery)
		}
		opt.Store = store
	}

	srv, err := serve.New(opt)
	if err != nil {
		fail("%v", err)
	}
	if store != nil {
		h, compacted := store.Health(), ""
		if h.Compacted {
			compacted = ", log compacted"
		}
		fmt.Fprintf(os.Stderr, "ivmserved: seeded %d cached state(s) from %s (%d duplicate frame(s) dropped%s)\n",
			srv.Seeded(), store.Path(), h.DuplicateRecords, compacted)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("ivmserved: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "ivmserved listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ivmserved: %v: shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close() //nolint:errcheck // already failing
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail("ivmserved: %v", err)
		}
	}
	if store != nil {
		if err := store.Sync(); err != nil {
			fail("ivmserved: store sync: %v", err)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
