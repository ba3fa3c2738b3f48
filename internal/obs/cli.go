package obs

// Shared -metrics-addr wiring for the CLIs: one call builds the
// registry, connects the engine's JSON and Prometheus sources,
// attaches an optional progress tracker, starts the server and
// announces the endpoints on stderr.

import (
	"fmt"
	"io"
	"os"

	"ivm/internal/sweep"
)

// ServeMetrics starts the live metrics server for a CLI run and
// returns its closer. A non-nil eng adds its snapshot and work-item
// latency histogram to /metrics.json beside its Prometheus metrics;
// with nil only the liveness gauge plus the runtime's expvar and pprof
// are served. prog optionally adds the progress tracker's JSON and
// Prometheus views. The endpoint summary is printed to stderr so an
// operator can copy the scrape URL.
func ServeMetrics(addr string, eng *sweep.Engine, prog *Progress) (io.Closer, error) {
	reg := NewRegistry()
	if eng != nil {
		reg.Register("engine", func() any { return eng.Snapshot() })
		reg.Register("item_latency", func() any { return eng.ItemLatency() })
		reg.RegisterProm("sweep", SweepPromMetrics(eng))
	}
	if prog != nil {
		reg.Register("progress", func() any { return prog.Snapshot() })
		reg.RegisterProm("progress", prog.PromMetrics)
	}
	bound, closer, err := reg.Serve(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr,
		"serving metrics on http://%s/metrics (Prometheus text; /metrics.json, /healthz, /debug/vars, /debug/pprof)\n",
		bound)
	return closer, nil
}
