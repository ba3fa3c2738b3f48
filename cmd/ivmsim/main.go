// Command ivmsim runs an ad-hoc interleaved-memory simulation: choose
// the system (m, s, n_c, priority, mapping) and up to nine access
// streams "start:distance[:cpu]", get the paper-style timeline, the
// steady-state effective bandwidth and the conflict breakdown.
//
// Example (Fig. 3's barrier):
//
//	ivmsim -m 13 -nc 6 -streams 0:1,0:6
//
// Observability: one tracer records the timeline run, its ring sized
// to hold every event (at most one per stream per clock), and every
// event export is read from it after the run: -trace-out writes a
// Chrome trace_event file (chrome://tracing, Perfetto), -csv-out a CSV
// timeline, -strip prints the bank-occupancy strip chart and
// -metrics-out writes the trace totals beside the statistics.
// -phase-hist prints the conflict phase histogram of the steady-state
// cycle the b_eff table reports (-phase-csv exports it; -metrics-out
// includes it). -cpuprofile/-memprofile/-trace profile the run itself.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/modmath"
	"ivm/internal/obs"
	"ivm/internal/obs/profile"
	"ivm/internal/stats"
	"ivm/internal/textplot"
	"ivm/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, simulates and writes the report to stdout and the
// requested files.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ivmsim", flag.ExitOnError)
	m := fs.Int("m", 16, "number of banks")
	s := fs.Int("s", 0, "number of sections (0 = one per bank)")
	nc := fs.Int("nc", 4, "bank busy time in clock periods")
	cpus := fs.Int("cpus", 2, "number of CPUs (path groups; 0 = 1)")
	streamsFlag := fs.String("streams", "0:1,0:6", "comma-separated streams start:distance[:cpu]")
	clocks := fs.Int64("clocks", 40, "timeline width in clock periods")
	priority := fs.String("priority", "fixed", "priority rule: fixed|cyclic|rr-cpu")
	mapping := fs.String("mapping", "cyclic", "bank-to-section mapping: cyclic|consecutive")
	analyze := fs.Bool("analyze", true, "print the analytic verdict for two-stream runs")
	statsFlag := fs.Bool("stats", false, "print per-bank utilisation and delay-run statistics")
	statsClocks := fs.Int64("statsclocks", 2048, "clocks to gather statistics over")
	traceOut := fs.String("trace-out", "", "write the timeline run as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	csvOut := fs.String("csv-out", "", "write every event of the timeline run to this CSV file")
	stripFlag := fs.Bool("strip", false, "print the timeline run's bank-occupancy strip chart")
	phaseHist := fs.Bool("phase-hist", false, "print the steady-state cycle's conflict phase histogram (grants/conflicts by clock phase and bank)")
	phaseCSV := fs.String("phase-csv", "", "write the phase histogram as CSV (phase x bank, long form)")
	metricsOut := fs.String("metrics-out", "", "write statistics, trace totals and the phase histogram as a JSON metrics snapshot")
	prof := profile.AddFlags(fs)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	if *clocks < 0 {
		return fmt.Errorf("-clocks %d: must not be negative", *clocks)
	}
	if *statsClocks < 0 {
		return fmt.Errorf("-statsclocks %d: must not be negative", *statsClocks)
	}
	stop, err := prof.Start()
	if err != nil {
		return err
	}

	cfg := memsys.Config{Banks: *m, Sections: *s, BankBusy: *nc, CPUs: *cpus}
	if cfg.Priority, err = memsys.ParsePriority(*priority); err != nil {
		return err
	}
	if cfg.Mapping, err = memsys.ParseMapping(*mapping); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	specs, err := parseStreams(*streamsFlag, *m, *cpus)
	if err != nil {
		return err
	}

	sys := memsys.New(cfg)
	rec := trace.Attach(sys, 0, *clocks)
	var tracer *obs.Tracer
	if *traceOut != "" || *csvOut != "" || *stripFlag || *metricsOut != "" {
		// The tracer shares the listener seam with the timeline
		// recorder. Each stream yields at most one event per clock, so
		// a ring of clocks × streams events keeps the whole run.
		tracer = obs.NewTracer(int(*clocks) * len(specs))
		sys.SetListener(obs.Tee{rec, tracer})
	}
	sys.AddStreams(specs...)
	sys.Run(*clocks)
	if *s != 0 && *s != *m {
		fmt.Fprint(stdout, rec.RenderWithSections(sys.Section))
	} else {
		fmt.Fprint(stdout, rec.Render())
	}
	fmt.Fprintln(stdout, trace.Legend())
	fmt.Fprintln(stdout)

	// One steady-state search on a fresh system, traced only when a
	// phase histogram is wanted.
	var cyc memsys.Cycle
	var phist *obs.PhaseHistogram
	if *phaseHist || *phaseCSV != "" || *metricsOut != "" {
		h, c, err := obs.TracePhaseHistogram(cfg, specs, 1<<22)
		if err != nil {
			return err
		}
		cyc, phist = c, &h
	} else {
		sys2 := memsys.New(cfg)
		sys2.AddStreams(specs...)
		if cyc, err = sys2.FindCycle(1 << 22); err != nil {
			return fmt.Errorf("cycle detection: %v", err)
		}
	}
	fmt.Fprintf(stdout, "steady state: b_eff = %s (cycle length %d, lead-in %d)\n\n", cyc.EffectiveBandwidth(), cyc.Length, cyc.Lead)
	tbl := &textplot.Table{Header: []string{"stream", "start", "distance", "cpu", "b_eff", "bank", "simult", "section"}}
	for i, sp := range specs {
		c := cyc.Conflicts[i]
		tbl.Add(i+1, sp.Start, sp.Distance, sp.CPU, cyc.PortBandwidth(i).String(), c.Bank, c.Simultaneous, c.Section)
	}
	fmt.Fprint(stdout, tbl.String())

	if *analyze && len(specs) == 2 && (*s == 0 || *s == *m) {
		a := core.Analyze(*m, *nc, specs[0].Distance, specs[1].Distance)
		fmt.Fprintf(stdout, "\nanalytic verdict: %s\n%s\n", a, a.Note)
	}

	if *phaseHist {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, phist.Render())
	}
	if *phaseCSV != "" {
		if err := writeFile(*phaseCSV, func(w io.Writer) error {
			return obs.WritePhaseCSV(w, *phist)
		}); err != nil {
			return err
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
		fmt.Fprintf(stdout, "\nstatistics over %d clocks:\n%s", *statsClocks, col.Report())
		for i := range specs {
			if runs := col.DelayRunLengths(i); len(runs) > 0 {
				fmt.Fprintf(stdout, "stream %d delay-run lengths: %v\n", i+1, runs)
			}
		}
	}

	if tracer != nil {
		events := tracer.Events()
		if *traceOut != "" {
			if err := writeFile(*traceOut, func(w io.Writer) error {
				return obs.WriteChromeTrace(w, events, *m, *nc)
			}); err != nil {
				return err
			}
		}
		if *csvOut != "" {
			if err := writeFile(*csvOut, func(w io.Writer) error {
				return obs.WriteCSV(w, events)
			}); err != nil {
				return err
			}
		}
		if *stripFlag {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, obs.StripChart(events, *m, *nc))
		}
	}
	if *metricsOut != "" {
		snap := obs.Snapshot{PhaseHistogram: phist}
		if col != nil {
			cs := col.Snapshot()
			snap.Stats = &cs
		}
		if tracer != nil {
			ts := tracer.Stats()
			snap.Trace = &ts
		}
		if err := obs.WriteSnapshotFile(*metricsOut, snap); err != nil {
			return err
		}
	}
	return stop()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseStreams reads the -streams flag. Start and distance are reduced
// into [0, m); streams without an explicit CPU go round-robin over the
// CPUs, of which 0 means one, as in memsys.
func parseStreams(flagVal string, m, cpus int) ([]memsys.StreamSpec, error) {
	if cpus == 0 {
		cpus = 1
	}
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
		specs = append(specs, memsys.StreamSpec{Start: modmath.Mod(start, m), Distance: modmath.Mod(dist, m), CPU: cpu})
	}
	if len(specs) == 0 || len(specs) > 9 {
		return nil, fmt.Errorf("need 1..9 streams, got %d", len(specs))
	}
	return specs, nil
}
