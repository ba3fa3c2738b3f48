// Command ivmreport regenerates the complete reproduction record in
// one run: Figures 2–9 steady states against the paper's values, the
// full-grid analytic-vs-simulation agreement, the Fig. 10 triad series
// with the per-increment analytic verdict, and the ablation summaries.
// Its output is the machine-generated counterpart of EXPERIMENTS.md.
//
// The grid sweeps run on the parallel sweep engine (-workers/-cache);
// the report is byte-identical to the sequential path apart from the
// appended engine-counter and result-provenance sections (the latter
// attributes every grid placement to the theorem, cache orbit or
// simulation that answered it).
// -metrics-out captures the engine snapshot (cache hit rate,
// per-worker utilisation, provenance) as JSON, -metrics-addr serves it
// live (Prometheus text at /metrics, JSON at /metrics.json, /healthz,
// the runtime's expvar and pprof) while the report generates, and the
// shared -cpuprofile/-memprofile/-trace flags profile the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"ivm/internal/obs"
	"ivm/internal/obs/profile"
	"ivm/internal/report"
	"ivm/internal/sweep"
)

func main() {
	fast := flag.Bool("fast", false, "shrink the expensive sweeps")
	workers := flag.Int("workers", 0, "sweep worker goroutines; 0 selects GOMAXPROCS")
	cache := flag.Int("cache", sweep.DefaultCacheSize, "cyclic-state cache entries, shared by pair, triple and section sweeps; negative disables caching")
	metricsOut := flag.String("metrics-out", "", "write the engine metrics snapshot as JSON to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address: /metrics Prometheus text, /metrics.json, /healthz, /debug/vars expvar, /debug/pprof")
	latencyFlag := flag.Bool("latency", false, "print the engine's per-work-item latency histogram as p50/p95/p99 to stderr (also in -metrics-out); off by default so regenerated reports stay deterministic")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fail(err)
	}

	opts := report.Defaults()
	if *fast {
		opts = report.Fast()
	}
	eng := sweep.NewEngine(sweep.Options{Workers: *workers, CacheSize: *cache, Provenance: sweep.NewProvenance(0)})
	opts.Engine = eng
	if *metricsAddr != "" {
		closer, err := obs.ServeMetrics(*metricsAddr, eng, nil)
		if err != nil {
			fail(err)
		}
		defer closer.Close()
	}

	if err := report.Write(os.Stdout, opts); err != nil {
		stop()
		fail(err)
	}
	if *latencyFlag {
		fmt.Fprintf(os.Stderr, "work-item latency: %s\n", eng.ItemLatency().Summary())
	}
	if *metricsOut != "" {
		snap := eng.Snapshot()
		out := obs.Snapshot{Engine: &snap}
		if *latencyFlag {
			ls := eng.ItemLatency()
			out.ItemLatency = &ls
		}
		if err := obs.WriteSnapshotFile(*metricsOut, out); err != nil {
			stop()
			fail(err)
		}
	}
	if err := stop(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
