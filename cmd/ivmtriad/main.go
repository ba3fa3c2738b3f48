// Command ivmtriad reproduces the Fig. 10 experiment of Oed & Lange
// (1985): execution times and conflict counts of the Fortran triad
// A(I) = B(I) + C(I)*D(I) on a simulated 2-CPU, 16-bank Cray X-MP for
// INC = 1..16, with the other CPU saturating memory at distance 1.
//
// -bounds appends an idealised three-stream capacity study per
// increment: the triad's three operand streams as equal-stride
// infinite streams on a 16-bank n_c = 4 memory, swept over all
// relative placements against core.CapacityBound on the cached
// sweep engine (-workers/-cache).
//
// Observability: the shared -cpuprofile/-memprofile/-trace flags
// profile the run, and -metrics-addr serves the live endpoints
// (Prometheus text at /metrics — including the -bounds engine's
// counters — /metrics.json, /healthz, the runtime's expvar and pprof)
// while it runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"ivm/internal/explain"
	"ivm/internal/machine"
	"ivm/internal/obs"
	"ivm/internal/obs/profile"
	"ivm/internal/sweep"
	"ivm/internal/xmp"
)

func main() {
	n := flag.Int("n", 1024, "vector length per stream")
	maxInc := flag.Int("maxinc", 16, "largest increment to sweep")
	quiet := flag.Bool("quiet", false, "shut the other CPU off (Fig. 10b)")
	explainFlag := flag.Bool("explain", false, "append the analytic pairwise verdict per increment (Section IV reasoning)")
	bounds := flag.Bool("bounds", false, "append the idealised three-stream capacity-bound sweep per increment (all placements, cached engine)")
	workers := flag.Int("workers", 0, "sweep worker goroutines for -bounds; 0 selects GOMAXPROCS")
	cache := flag.Int("cache", sweep.DefaultCacheSize, "cyclic-state cache entries for -bounds, shared by pair, triple and section sweeps; negative disables caching")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address: /metrics Prometheus text, /metrics.json, /healthz, /debug/vars expvar, /debug/pprof")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := validateTriadFlags(*n, *maxInc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The engine exists only when -bounds runs; it is built before the
	// metrics server starts, so the server only ever reads it.
	var eng *sweep.Engine
	if *bounds {
		eng = sweep.NewEngine(sweep.Options{Workers: *workers, CacheSize: *cache})
	}
	if *metricsAddr != "" {
		closer, err := obs.ServeMetrics(*metricsAddr, eng, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer closer.Close()
	}

	cfg := machine.DefaultConfig()
	mode := "other CPU saturating at d=1 (Fig. 10a/c/d/e)"
	if *quiet {
		mode = "other CPU off (Fig. 10b)"
	}
	fmt.Printf("Triad A(I)=B(I)+C(I)*D(I), n=%d, %s\n", *n, mode)
	fmt.Printf("%-4s %10s %10s %8s %8s %8s\n", "INC", "clocks", "time/us", "bank", "section", "simult")
	for _, r := range xmp.TriadSweep(*maxInc, *n, !*quiet, cfg) {
		fmt.Printf("%-4d %10d %10.1f %8d %8d %8d", r.INC, r.Clocks, r.Micros, r.Bank, r.Section, r.Simultaneous)
		if *explainFlag && !*quiet {
			v := explain.TriadReport(r.INC).Verdicts[0]
			fmt.Printf("   %d(+)%d %s", v.Canonical[0], v.Canonical[1], v.Analysis.Regime)
			if v.HasRole {
				if v.WorkWins {
					fmt.Printf(" (triad wins)")
				} else {
					fmt.Printf(" (triad delayed)")
				}
			}
		}
		fmt.Println()
	}

	if *bounds {
		fmt.Printf("\nIdealised triad streams (INC,INC,INC) on m=16 n_c=4, all relative placements:\n")
		fmt.Printf("%-4s %12s %12s %12s %12s %10s\n", "INC", "bound min", "bound max", "sim min", "sim max", "tight")
		for inc := 1; inc <= *maxInc; inc++ {
			r := eng.SpecGrid([]sweep.ConfigSpec{sweep.TripleSpec(16, 4, [3]int{inc, inc, inc})})[0]
			fmt.Printf("%-4d %12s %12s %12s %12s %6d/%d\n",
				inc, r.BoundMin, r.BoundMax, r.SimMin, r.SimMax, r.TightStarts, r.Starts)
		}
		m := eng.Metrics()
		tf := m.Family("triple")
		fmt.Printf("engine: %d placements, %.0f%% cache hits\n",
			tf.Hits+tf.Misses, m.FamilyHitRate("triple")*100)
	}

	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// validateTriadFlags rejects a vector length or increment range that
// leaves nothing to run, with a usage error naming the flag, instead of
// a panic from the workload builder or an empty table.
func validateTriadFlags(n, maxInc int) error {
	if n < 1 {
		return fmt.Errorf("-n wants a vector length of at least 1, got %d", n)
	}
	if maxInc < 1 {
		return fmt.Errorf("-maxinc wants a largest increment of at least 1, got %d", maxInc)
	}
	return nil
}
