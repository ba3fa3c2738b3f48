package obs

// Shared -metrics-addr wiring for the CLIs: one call builds the
// registry, connects the engine's JSON and Prometheus sources (lazily,
// so commands that build their engine on demand can pass a resolver),
// attaches an optional progress tracker, starts the server and
// announces the endpoints on stderr.

import (
	"fmt"
	"io"
	"os"

	"ivm/internal/sweep"
)

// ServeMetrics starts the live metrics server for a CLI run and
// returns its closer. engine resolves the sweep engine on every poll
// (nil, or returning nil, serves only the liveness gauge plus the
// runtime's expvar and pprof) and adds its snapshot and work-item
// latency histogram to /metrics.json beside its Prometheus metrics;
// prog optionally adds the progress tracker's JSON and Prometheus
// views. The endpoint summary is printed to stderr so an operator can
// copy the scrape URL.
func ServeMetrics(addr string, engine func() *sweep.Engine, prog *Progress) (io.Closer, error) {
	reg := NewRegistry()
	if engine != nil {
		reg.Register("engine", func() any {
			if eng := engine(); eng != nil {
				return eng.Snapshot()
			}
			return nil
		})
		reg.Register("item_latency", func() any {
			if eng := engine(); eng != nil {
				return eng.ItemLatency()
			}
			return nil
		})
		reg.RegisterProm("sweep", func() []PromMetric {
			if eng := engine(); eng != nil {
				return SweepPromMetrics(eng)()
			}
			return nil
		})
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
