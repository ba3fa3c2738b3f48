// Command ivmsweep cross-validates the analytic model of Oed & Lange
// (1985) against the cycle-accurate simulator: for every distance pair
// of an (m, n_c) memory system it prints the predicted conflict regime
// and effective bandwidth next to the simulated cyclic-state range over
// all relative starting positions. Sweeps run on the parallel engine
// (worker pool + cyclic-state cache); the sweep tables are
// byte-identical to the sequential path regardless of -workers/-cache.
// (The engine-counter footer is diagnostic: concurrent workers can
// both miss the same cache key, so its counts may vary by a few.)
//
// Observability covers the sweep itself: -trace-out exports the sweep
// engine's worker timeline (work-item slices, cache hit/miss instants,
// simulation and canonicalisation spans) as a Chrome trace_event file
// for chrome://tracing or Perfetto; -metrics-out writes a JSON snapshot
// of the engine counters (cache hit rate, per-worker utilisation, the
// worker timeline when traced, and the provenance attribution when
// recorded) and -metrics-addr serves them live while the sweep runs:
// Prometheus text exposition at /metrics, the JSON view at
// /metrics.json, /healthz, the runtime's expvar and pprof
// (-metrics-linger keeps the server up after the sweeps so a scraper
// can read the final counters). -provenance appends the
// result-attribution report — which theorem, cache orbit or
// simulation answered each placement, and which orbits a low hit rate
// hides — and -provenance-csv exports it in long form; -progress
// prints a live status line (items/s, ETA, path split) at the given
// period. -cpuprofile/-memprofile/-trace write pprof/runtime profiles
// of the whole run. -cache-export dir appends every cyclic state the
// run simulates to a persistent cache store (internal/cachestore) that
// ivmserved -cache-dir warm-starts from; see docs/SERVING.md.
//
// One simulation's bank and port timeline, strip chart and per-bank
// statistics are ivmsim's: ivmsim -trace-out, -csv-out, -strip, -stats.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/memsys"
	"ivm/internal/obs"
	"ivm/internal/obs/profile"
	"ivm/internal/sweep"
)

func main() {
	m := flag.Int("m", 16, "number of banks")
	nc := flag.Int("nc", 4, "bank busy time in clock periods")
	secs := flag.Int("s", 0, "number of sections; nonzero selects the section-theorem sweep (one CPU, Theorems 8/9)")
	triples := flag.Bool("triples", false, "sweep three-stream triples (all relative placements) against the capacity bounds instead")
	census := flag.Bool("triple-census", false, "with -triples: only the fixed placement (0,1,2) per triple, the cheap regime scan")
	streams := flag.Int("streams", 0, "sweep N concurrent streams (one per CPU, all relative placements) against the capacity bounds; 0 selects the pair sweep")
	full := flag.Bool("full", false, "print the full per-pair table (default: summary only)")
	workers := flag.Int("workers", 0, "sweep worker goroutines; 0 selects GOMAXPROCS")
	cache := flag.Int("cache", sweep.DefaultCacheSize, "cyclic-state cache entries, shared by pair, triple and section sweeps; negative disables caching")
	priorityName := flag.String("priority", "fixed", "arbitration priority rule: fixed, cyclic or rr-cpu; non-default rules run the pair/section families through the generic spec grid")
	mappingName := flag.String("mapping", "cyclic", "bank-to-section mapping: cyclic or consecutive (consecutive requires -s)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of the sweep worker timeline (open in chrome://tracing or Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (engine counters, per-worker utilisation, provenance)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address: /metrics Prometheus text, /metrics.json, /healthz, /debug/vars expvar, /debug/pprof")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the -metrics-addr server up this long after the sweeps finish (lets a scraper read the final counters)")
	provenanceFlag := flag.Bool("provenance", false, "print the result-attribution report: per-family path split, per-theorem analytic hits, orbit sizes and the top unexplained orbits")
	provenanceCSV := flag.String("provenance-csv", "", "write the result-attribution report as long-form CSV")
	progressEvery := flag.Duration("progress", 0, "print a live progress line (items/s, ETA, path split) to stderr at this period; 0 disables")
	latencyFlag := flag.Bool("latency", false, "print the engine's per-work-item latency histogram as p50/p95/p99 (also in -metrics-out)")
	cacheExport := flag.String("cache-export", "", "append every cyclic state the sweeps simulate to the persistent store in this directory (warm-start set for ivmserved -cache-dir)")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	priority, err := memsys.ParsePriority(*priorityName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	mapping, err := memsys.ParseMapping(*mappingName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err := validateSweepFlags(sweepFlags{
		m: *m, nc: *nc, streams: *streams, secs: *secs, triples: *triples, census: *census,
		priority: priority, mapping: mapping,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	stop, err := prof.Start()
	if err != nil {
		fail("%v", err)
	}

	var timeline *sweep.Timeline
	if *traceOut != "" {
		timeline = sweep.NewTimeline(0)
	}
	// Attach the provenance recorder whenever anything will read it:
	// the attribution report, its CSV export, the JSON snapshot, or the
	// live Prometheus endpoint. Detached it would cost nothing, but
	// would also explain nothing.
	var prov *sweep.Provenance
	if *provenanceFlag || *provenanceCSV != "" || *metricsOut != "" || *metricsAddr != "" {
		prov = sweep.NewProvenance(0)
	}
	opt := sweep.Options{Workers: *workers, CacheSize: *cache, Timeline: timeline, Provenance: prov}
	var store *cachestore.Store
	var stored int
	if *cacheExport != "" {
		if store, err = cachestore.Open(*cacheExport); err != nil {
			fail("%v", err)
		}
		store.ReleaseRecords() // the export appends; it never seeds from the store
		stored = store.Health().Records
		opt.CacheSink = store
	}
	eng := sweep.NewEngine(opt)
	var prog *obs.Progress
	if *progressEvery > 0 || *metricsAddr != "" {
		prog = obs.NewProgress(eng)
	}
	if *metricsAddr != "" {
		closer, err := obs.ServeMetrics(*metricsAddr, eng, prog)
		if err != nil {
			fail("%v", err)
		}
		defer closer.Close()
	}
	if *progressEvery > 0 {
		stopProgress := prog.Start(os.Stderr, *progressEvery)
		defer stopProgress()
	}

	runSweeps(eng, *m, *nc, *secs, *streams, *triples, *census, *full, priority, mapping)

	if store != nil {
		if err := closeExport(store, *cacheExport, stored); err != nil {
			fail("%v", err)
		}
	}

	fmt.Println()
	fmt.Print(eng.Metrics().Table())
	if *latencyFlag {
		fmt.Printf("\nwork-item latency: %s\n", eng.ItemLatency().Summary())
	}
	if *provenanceFlag {
		fmt.Println()
		fmt.Print(eng.Snapshot().Provenance.Table())
	}
	if *provenanceCSV != "" {
		if err := writeFile(*provenanceCSV, func(w *os.File) error {
			return eng.Snapshot().Provenance.WriteCSV(w)
		}); err != nil {
			fail("%v", err)
		}
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w *os.File) error {
			return obs.WriteWorkerTrace(w, timeline.Events())
		}); err != nil {
			fail("%v", err)
		}
		if d := timeline.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "warning: worker timeline dropped %d events past its capacity\n", d)
		}
	}

	if *metricsOut != "" {
		es := eng.Snapshot()
		snap := obs.Snapshot{Engine: &es}
		if *latencyFlag {
			ls := eng.ItemLatency()
			snap.ItemLatency = &ls
		}
		if err := obs.WriteSnapshotFile(*metricsOut, snap); err != nil {
			fail("%v", err)
		}
	}
	if *metricsAddr != "" && *metricsLinger > 0 {
		fmt.Fprintf(os.Stderr, "metrics server lingering for %s\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
	if err := stop(); err != nil {
		fail("%v", err)
	}
}

// closeExport flushes and closes the -cache-export store, which was the
// engine's CacheSink for the run, and reports the frames the run
// appended to the stored frames it opened with. The sink received
// every orbit the sweeps simulated, so a later ivmserved -cache-dir
// run starts warm. Analytic answers are never simulated, so the export
// holds exactly the simulated orbits — complete for serving, which
// gates the same placements analytically. The store appends repeats
// as they come, so the export reopens it as ivmserved will and reports
// the distinct states and the duplicate frames that Open drops (and
// compacts away past its share).
func closeExport(store *cachestore.Store, dir string, stored int) error {
	appended := store.Health().Records - stored
	if err := store.Close(); err != nil {
		return fmt.Errorf("cache export: %v", err)
	}
	reopened, err := cachestore.Open(dir)
	if err != nil {
		return fmt.Errorf("cache export: %v", err)
	}
	h, distinct := reopened.Health(), len(reopened.Records())
	if err := reopened.Close(); err != nil {
		return fmt.Errorf("cache export: %v", err)
	}
	compacted := ""
	if h.Compacted {
		compacted = ", log compacted"
	}
	fmt.Fprintf(os.Stderr, "exported %d cached-state frames to %s (%d distinct states stored, %d duplicate frames dropped%s)\n",
		appended, store.Path(), distinct, h.DuplicateRecords, compacted)
	return nil
}

// sweepFlags collects the memory geometry, the mutually exclusive
// sweep-family selectors and the policy dimensions for validation
// before any work starts.
type sweepFlags struct {
	m, nc    int
	streams  int
	secs     int
	triples  bool
	census   bool
	priority memsys.PriorityRule
	mapping  memsys.SectionMapping
}

// defaultPolicy reports whether the flags select the historical
// fixed-priority, cyclic-mapping sweep.
func (f sweepFlags) defaultPolicy() bool {
	return f.priority == memsys.FixedPriority && f.mapping == memsys.CyclicSections
}

// validateSweepFlags rejects an impossible memory geometry and
// conflicting flag combinations with a usage error naming the flag,
// instead of a panic from a sweep worker, an empty table, or silently
// ignoring one of the flags.
func validateSweepFlags(f sweepFlags) error {
	if f.m < 1 {
		return fmt.Errorf("-m wants at least 1 bank, got %d", f.m)
	}
	if f.nc < 1 {
		return fmt.Errorf("-nc wants a bank busy time of at least 1 clock, got %d", f.nc)
	}
	if f.secs < 0 || f.secs > 0 && f.m%f.secs != 0 {
		return fmt.Errorf("-s wants 0 or a section count that divides -m %d, got %d", f.m, f.secs)
	}
	if f.streams < 0 || f.streams == 1 {
		return fmt.Errorf("-streams wants 0 (pair sweep) or at least 2 streams, got %d", f.streams)
	}
	if f.census && !f.triples {
		return fmt.Errorf("-triple-census only applies together with -triples")
	}
	if f.triples && f.secs != 0 {
		return fmt.Errorf("-triples sweeps are sectionless; -s selects the section-theorem pair sweep: pick one")
	}
	if f.streams >= 2 && f.triples {
		return fmt.Errorf("-streams and -triples select different sweeps: pick one")
	}
	if f.streams >= 2 && f.secs != 0 {
		return fmt.Errorf("the -streams grid is sectionless; -s selects the section-theorem pair sweep: pick one")
	}
	if f.mapping == memsys.ConsecutiveSections && f.secs == 0 {
		return fmt.Errorf("-mapping consecutive partitions banks into sections; it needs -s")
	}
	if !f.defaultPolicy() && (f.triples || f.streams >= 2) {
		return fmt.Errorf("-priority/-mapping sweeps cover the pair and section families; drop -triples/-streams")
	}
	return nil
}

func runSweeps(eng *sweep.Engine, m, nc, secs, streams int, triples, census, full bool, priority memsys.PriorityRule, mapping memsys.SectionMapping) {
	if priority != memsys.FixedPriority || mapping != memsys.CyclicSections {
		specs := sweep.GridSpecs(m, secs, nc)
		for i := range specs {
			specs[i] = specs[i].WithPolicy(priority, mapping)
		}
		results := eng.SpecGrid(specs)
		if full {
			fmt.Print(sweep.SpecTable(results))
			fmt.Println()
		}
		sum := sweep.SummariseSpecGrid(results)
		fmt.Printf("m=%d s=%d n_c=%d priority=%s mapping=%s: %d distance pairs over %d placements; bound attained somewhere by %d pairs (%d placements), violated by %d\n",
			m, secs, nc, priority, mapping, sum.Triples, sum.Starts, sum.TightSomewhere, sum.TightStarts, sum.Violations)
		return
	}
	if streams >= 2 {
		results := eng.NStreamGrid(m, nc, streams)
		if full {
			fmt.Print(sweep.SpecTable(results))
			fmt.Println()
		}
		sum := sweep.SummariseSpecGrid(results)
		fmt.Printf("m=%d n_c=%d p=%d: %d distance tuples over %d placements; bound attained somewhere by %d tuples (%d placements), violated by %d\n",
			m, nc, streams, sum.Triples, sum.Starts, sum.TightSomewhere, sum.TightStarts, sum.Violations)
		return
	}
	if triples {
		if census {
			sum := sweep.SummariseSpecGrid(eng.SpecGrid(sweep.TripleCensusSpecs(m, nc, [3]int{0, 1, 2})))
			fmt.Printf("m=%d n_c=%d: %d distance triples at placement (0,1,2); capacity bound attained by %d, violated by %d\n",
				m, nc, sum.Triples, sum.TightStarts, sum.Violations)
			return
		}
		results := eng.TripleGrid(m, nc)
		if full {
			fmt.Print(sweep.TripleGridTable(results))
			fmt.Println()
		}
		sum := sweep.SummariseTripleGrid(m, nc, results)
		fmt.Printf("m=%d n_c=%d: %d distance triples over %d placements; bound attained somewhere by %d triples (%d placements), violated by %d\n",
			m, nc, sum.Triples, sum.Starts, sum.TightSomewhere, sum.TightStarts, sum.Violations)
		return
	}
	if secs != 0 {
		results := eng.SectionGrid(m, secs, nc)
		if full {
			fmt.Print(sweep.SectionTable(results))
			fmt.Println()
		}
		bad := 0
		for _, r := range results {
			if !r.Agree {
				bad++
			}
		}
		fmt.Printf("m=%d s=%d n_c=%d: %d pairs, %d disagreements\n", m, secs, nc, len(results), bad)
		return
	}

	results := eng.Grid(m, nc)
	if full {
		fmt.Print(sweep.Table(results))
		fmt.Println()
	}
	s := sweep.Summarise(m, nc, results)
	fmt.Printf("m=%d n_c=%d: %d stream pairs, each simulated from %d starts\n\n", m, nc, s.Pairs, m)
	fmt.Print(sweep.SummaryTable(s))
	if len(s.Disagree) > 0 {
		fmt.Println("\ndisagreements:")
		fmt.Print(sweep.Table(s.Disagree))
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
