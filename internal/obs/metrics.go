package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"sync"

	"ivm/internal/obs/latency"
	"ivm/internal/stats"
	"ivm/internal/sweep"
)

// Snapshot is the one-shot metrics document the CLIs write with
// -metrics-out: whichever of the three sources a run had, serialised
// together. Every field round-trips through JSON unchanged.
type Snapshot struct {
	// Engine holds the parallel sweep engine's counters: cache hit
	// rate, per-worker utilisation, steady-state detection latency.
	Engine *sweep.Snapshot `json:"engine,omitempty"`
	// Stats holds a stats.Collector's per-bank view of one simulation.
	Stats *stats.Snapshot `json:"stats,omitempty"`
	// Trace holds the tracer's totals over its retained events.
	Trace *TraceStats `json:"trace,omitempty"`
	// PhaseHistogram holds the per-cycle conflict phase histogram of a
	// traced steady state (ivmsim -phase-hist). Readers built before
	// this field existed ignore it: encoding/json skips unknown keys.
	PhaseHistogram *PhaseHistogram `json:"phase_histogram,omitempty"`
	// ItemLatency holds the engine's work-item latency histogram when
	// the run asked for it (ivmsweep/ivmreport -latency): log2 buckets
	// plus estimated p50/p95/p99. Readers built before this field
	// existed ignore it.
	ItemLatency *latency.Snapshot `json:"item_latency,omitempty"`
}

// WriteSnapshot serialises the snapshot as indented JSON.
func WriteSnapshot(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSnapshotFile writes the snapshot to a file (the CLIs'
// -metrics-out).
func WriteSnapshotFile(path string, s Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Registry is a live metrics endpoint: named sources are polled on
// every request, so a long sweep can be watched while it runs. It
// serves its own JSON (ServeHTTP); Serve mounts the Prometheus text
// exposition at /metrics, the JSON view at /metrics.json, a liveness
// probe at /healthz, the runtime's stock expvar variables (cmdline,
// memstats) under /debug/vars and net/http/pprof under /debug/pprof.
type Registry struct {
	mu          sync.Mutex
	sources     map[string]func() any
	promSources map[string]func() []PromMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]func() any)}
}

// Register adds (or replaces) a named metrics source. The function is
// called on every poll and must be safe to call concurrently with the
// instrumented work — engine and tracer snapshots are.
func (r *Registry) Register(name string, source func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[name] = source
}

// Gather polls every source once.
func (r *Registry) Gather() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.sources))
	for name, f := range r.sources {
		out[name] = f()
	}
	return out
}

// ServeHTTP renders the gathered sources as indented JSON (keys
// sorted by encoding/json's map ordering).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Gather()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Mount attaches the registry's observability endpoints to mux: the
// Prometheus text exposition at /metrics, the gathered JSON view at
// /metrics.json, the stock expvar variables at /debug/vars and pprof at
// /debug/pprof/.
// Liveness (/healthz) is deliberately NOT mounted — callers own it, so
// a server with real health state (ivmserved's store integrity) can
// report it while Serve keeps its plain "ok".
func (r *Registry) Mount(mux *http.ServeMux) {
	mux.Handle("/metrics", r.PromHandler())
	mux.Handle("/metrics.json", r)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
}

// Serve starts an HTTP server on addr (e.g. "localhost:6060", or
// ":0" to pick a port) exposing the Mount endpoints plus a liveness
// probe at /healthz. It returns the bound address and a closer; the
// server runs until closed.
func (r *Registry) Serve(addr string) (boundAddr string, closer io.Closer, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	r.Mount(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n") //nolint:errcheck // client gone
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return ln.Addr().String(), closerFunc(func() error { return srv.Close() }), nil
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }
