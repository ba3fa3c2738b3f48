// Command ivmfigs regenerates Figures 2-9 of Oed & Lange (1985):
// paper-style bank/clock timelines plus the measured steady-state
// effective bandwidth of each example.
//
// Observability: the shared -cpuprofile/-memprofile/-trace flags
// profile the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"ivm/internal/figures"
	"ivm/internal/obs/profile"
	"ivm/internal/trace"
)

func main() {
	fig := flag.String("fig", "", "figure id (2..9, 8a, 8b); empty = all")
	clocks := flag.Int64("clocks", 34, "timeline width in clock periods")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFigsFlags(*clocks); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	figs := figures.All()
	if *fig != "" {
		f, err := figures.ByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		figs = []figures.Figure{f}
	}
	for _, f := range figs {
		fmt.Printf("Fig. %s — %s\n", f.ID, f.Title)
		fmt.Print(f.Timeline(*clocks))
		bw, cyc, err := f.SteadyBandwidth()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cycle detection failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("steady state: b_eff = %s (cycle length %d, lead %d)", bw, cyc.Length, cyc.Lead)
		if f.WantBandwidth.Num != 0 {
			fmt.Printf("  [paper: %s]", f.WantBandwidth)
		}
		fmt.Printf("\n%s\n\n", f.Outcome)
	}
	fmt.Println(trace.Legend())
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// validateFigsFlags rejects a negative timeline width with a usage
// error naming the flag, instead of a panic from the timeline recorder.
func validateFigsFlags(clocks int64) error {
	if clocks < 0 {
		return fmt.Errorf("-clocks wants a timeline width of at least 0 clock periods, got %d", clocks)
	}
	return nil
}
