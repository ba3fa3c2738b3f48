// Command ivmsim runs an ad-hoc interleaved-memory simulation: choose
// the system (m, s, n_c, priority, mapping) and up to nine access
// streams "start:distance[:cpu]", get the paper-style timeline, the
// steady-state effective bandwidth and the conflict breakdown.
//
// Example (Fig. 3's barrier):
//
//	ivmsim -m 13 -nc 6 -streams 0:1,0:6
//
// Observability: -trace-out exports the timeline window as a Chrome
// trace_event file (chrome://tracing, Perfetto), -csv-out streams the
// whole run losslessly as a CSV timeline, -strip prints the
// bank-occupancy strip chart, -phase-hist prints the per-cycle
// conflict phase histogram of the steady state (-phase-csv exports
// it), and -metrics-out writes the statistics, trace totals and phase
// histogram as JSON. -cpuprofile/-memprofile/-trace profile the run
// itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/obs"
	"ivm/internal/obs/profile"
	"ivm/internal/stats"
	"ivm/internal/textplot"
	"ivm/internal/trace"
)

func main() {
	m := flag.Int("m", 16, "number of banks")
	s := flag.Int("s", 0, "number of sections (0 = one per bank)")
	nc := flag.Int("nc", 4, "bank busy time in clock periods")
	cpus := flag.Int("cpus", 2, "number of CPUs (path groups)")
	streamsFlag := flag.String("streams", "0:1,0:6", "comma-separated streams start:distance[:cpu]")
	clocks := flag.Int64("clocks", 40, "timeline width in clock periods")
	priority := flag.String("priority", "fixed", "priority rule: fixed|cyclic|rr-cpu")
	mapping := flag.String("mapping", "cyclic", "bank-to-section mapping: cyclic|consecutive")
	analyze := flag.Bool("analyze", true, "print the analytic verdict for two-stream runs")
	statsFlag := flag.Bool("stats", false, "print per-bank utilisation and delay-run statistics")
	statsClocks := flag.Int64("statsclocks", 2048, "clocks to gather statistics over")
	traceOut := flag.String("trace-out", "", "write the timeline window as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	csvOut := flag.String("csv-out", "", "stream the whole timeline run to this CSV file losslessly (not bounded by the trace ring)")
	stripFlag := flag.Bool("strip", false, "print the timeline window's bank-occupancy strip chart")
	phaseHist := flag.Bool("phase-hist", false, "print the steady-state cycle's conflict phase histogram (grants/conflicts by clock phase and bank)")
	phaseCSV := flag.String("phase-csv", "", "write the phase histogram as CSV (phase x bank, long form)")
	metricsOut := flag.String("metrics-out", "", "write statistics, trace totals and the phase histogram as a JSON metrics snapshot")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fail("%v", err)
	}

	cfg := memsys.Config{Banks: *m, Sections: *s, BankBusy: *nc, CPUs: *cpus}
	if cfg.Priority, err = memsys.ParsePriority(*priority); err != nil {
		fail("%v", err)
	}
	if cfg.Mapping, err = memsys.ParseMapping(*mapping); err != nil {
		fail("%v", err)
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	specs, err := parseStreams(*streamsFlag, *m, *cpus)
	if err != nil {
		fail("%v", err)
	}

	sys := memsys.New(cfg)
	rec := trace.Attach(sys, 0, *clocks)
	var tracer *obs.Tracer
	var stream *obs.CSVStream
	var streamFile *os.File
	listeners := obs.Tee{rec}
	if *traceOut != "" || *stripFlag || *metricsOut != "" {
		// The tracer shares the listener seam with the timeline
		// recorder, observing the same window.
		tracer = obs.NewTracer(obs.TracerOptions{})
		listeners = append(listeners, tracer)
	}
	if *csvOut != "" {
		// The streaming exporter writes rows as they happen, so the run
		// is exported losslessly even past the tracer's ring capacity.
		if streamFile, err = os.Create(*csvOut); err != nil {
			fail("%v", err)
		}
		stream = obs.NewCSVStream(streamFile)
		listeners = append(listeners, stream)
	}
	if len(listeners) > 1 {
		sys.SetListener(listeners)
	}
	sys.AddStreams(specs...)
	sys.Run(*clocks)
	if stream != nil {
		if err := stream.Close(); err != nil {
			fail("csv stream: %v", err)
		}
		if err := streamFile.Close(); err != nil {
			fail("csv stream: %v", err)
		}
	}
	if *s != 0 && *s != *m {
		fmt.Print(rec.RenderWithSections(sys.Section))
	} else {
		fmt.Print(rec.Render())
	}
	fmt.Println(trace.Legend())
	fmt.Println()

	// Fresh system for exact steady-state measurement.
	sys2 := memsys.New(cfg)
	sys2.AddStreams(specs...)
	cyc, err := sys2.FindCycle(1 << 22)
	if err != nil {
		fail("cycle detection: %v", err)
	}
	fmt.Printf("steady state: b_eff = %s (cycle length %d, lead-in %d)\n\n", cyc.EffectiveBandwidth(), cyc.Length, cyc.Lead)
	tbl := &textplot.Table{Header: []string{"stream", "start", "distance", "cpu", "b_eff", "bank", "simult", "section"}}
	for i, sp := range specs {
		c := cyc.Conflicts[i]
		tbl.Add(i+1, sp.Start, sp.Distance, sp.CPU, cyc.PortBandwidth(i).String(), c.Bank, c.Simultaneous, c.Section)
	}
	fmt.Print(tbl.String())

	if *analyze && len(specs) == 2 && (*s == 0 || *s == *m) {
		a := core.Analyze(*m, *nc, specs[0].Distance, specs[1].Distance)
		fmt.Printf("\nanalytic verdict: %s\n%s\n", a, a.Note)
	}

	var phist *obs.PhaseHistogram
	if *phaseHist || *phaseCSV != "" || *metricsOut != "" {
		h, _, err := obs.TracePhaseHistogram(cfg, specs, 1<<22)
		if err != nil {
			fail("phase histogram: %v", err)
		}
		phist = &h
	}
	if *phaseHist {
		fmt.Println()
		fmt.Print(phist.Render())
	}
	if *phaseCSV != "" {
		if err := writeFile(*phaseCSV, func(w *os.File) error {
			return obs.WritePhaseCSV(w, *phist)
		}); err != nil {
			fail("%v", err)
		}
	}

	var col *stats.Collector
	if *statsFlag || *metricsOut != "" {
		sys3 := memsys.New(cfg)
		col = stats.Attach(sys3)
		sys3.AddStreams(specs...)
		sys3.Run(*statsClocks)
	}
	if *statsFlag {
		fmt.Printf("\nstatistics over %d clocks:\n%s", *statsClocks, col.Report())
		for i := range specs {
			if runs := col.DelayRunLengths(i); len(runs) > 0 {
				fmt.Printf("stream %d delay-run lengths: %v\n", i+1, runs)
			}
		}
	}

	if tracer != nil {
		events := tracer.Events()
		if *traceOut != "" {
			if err := writeFile(*traceOut, func(w *os.File) error {
				return obs.WriteChromeTrace(w, events, *m, *nc)
			}); err != nil {
				fail("%v", err)
			}
		}
		if *stripFlag {
			fmt.Println()
			fmt.Print(obs.StripChart(events, *m, *nc))
		}
	}
	if *metricsOut != "" {
		snap := obs.Snapshot{}
		if col != nil {
			cs := col.Snapshot()
			snap.Stats = &cs
		}
		if tracer != nil {
			ts := tracer.Stats()
			snap.Trace = &ts
		}
		snap.PhaseHistogram = phist
		if err := obs.WriteSnapshotFile(*metricsOut, snap); err != nil {
			fail("%v", err)
		}
	}
	if err := stop(); err != nil {
		fail("%v", err)
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

func parseStreams(flagVal string, m, cpus int) ([]memsys.StreamSpec, error) {
	var specs []memsys.StreamSpec
	for i, part := range strings.Split(flagVal, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("stream %d: want start:distance[:cpu], got %q", i+1, part)
		}
		start, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("stream %d start: %v", i+1, err)
		}
		dist, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("stream %d distance: %v", i+1, err)
		}
		cpu := i % cpus
		if len(fields) == 3 {
			if cpu, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("stream %d cpu: %v", i+1, err)
			}
			if cpu < 0 || cpu >= cpus {
				return nil, fmt.Errorf("stream %d cpu %d out of range [0,%d)", i+1, cpu, cpus)
			}
		}
		specs = append(specs, memsys.StreamSpec{Start: start % m, Distance: dist % m, CPU: cpu})
	}
	if len(specs) == 0 || len(specs) > 9 {
		return nil, fmt.Errorf("need 1..9 streams, got %d", len(specs))
	}
	return specs, nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
