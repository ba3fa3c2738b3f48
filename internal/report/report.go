// Package report generates the machine-made reproduction record: every
// figure's steady state against the paper's value, the full-grid
// analytic-vs-simulation agreement, the Fig. 10 series with analytic
// verdicts, and the ablation summaries. cmd/ivmreport prints it; the
// tests in this package pin its structure.
package report

import (
	"fmt"
	"io"

	"ivm/internal/explain"
	"ivm/internal/figures"
	"ivm/internal/machine"
	"ivm/internal/memsys"
	"ivm/internal/obs"
	"ivm/internal/randaccess"
	"ivm/internal/sweep"
	"ivm/internal/textplot"
	"ivm/internal/xmp"
)

// Options scale the expensive parts of the report.
type Options struct {
	// TriadN is the triad vector length (paper: 1024).
	TriadN int
	// Grids lists the (m, n_c) systems to cross-validate exhaustively.
	Grids [][2]int
	// MaxInc bounds the ablation sweeps.
	MaxInc int
	// Engine runs every grid cross-validation sweep and the policy
	// comparison; nil selects a private default engine. A caller-supplied
	// engine also gets an engine-counter section appended to the report.
	// The tables are byte-identical to the cold sequential sweeps either
	// way.
	Engine *sweep.Engine
}

// Defaults reproduces the full EXPERIMENTS.md record.
func Defaults() Options {
	return Options{
		TriadN: 1024,
		Grids:  [][2]int{{8, 2}, {12, 3}, {13, 4}, {16, 4}},
		MaxInc: 16,
	}
}

// Fast shrinks everything for quick runs and tests.
func Fast() Options {
	return Options{TriadN: 256, Grids: [][2]int{{8, 2}}, MaxInc: 4}
}

// Write renders the full report.
func Write(w io.Writer, opts Options) error {
	if opts.TriadN <= 0 || opts.MaxInc <= 0 {
		return fmt.Errorf("report: invalid options %+v", opts)
	}
	fmt.Fprintln(w, "# Reproduction report — Oed & Lange (1985)")
	fmt.Fprintln(w)
	if err := Figures(w); err != nil {
		return err
	}
	if err := PhaseHistograms(w); err != nil {
		return err
	}
	eng := opts.Engine
	if eng == nil {
		eng = sweep.NewEngine(sweep.Options{})
	}
	grids(w, opts.Grids, eng)
	if err := PolicyComparison(w, eng); err != nil {
		return err
	}
	Triad(w, opts.TriadN)
	Ablations(w, opts.TriadN/2, opts.MaxInc)
	if opts.Engine != nil {
		Engine(w, opts.Engine)
	}
	return nil
}

// Engine appends the sweep-engine counter section (parallel runs),
// followed by the result-attribution section when the engine records
// provenance: the per-family path split, the theorems doing the
// analytic work, and the orbit population behind each hit rate.
func Engine(w io.Writer, eng *sweep.Engine) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Sweep engine")
	fmt.Fprintln(w)
	fmt.Fprint(w, eng.Metrics().Table())
	if prov := eng.Snapshot().Provenance; prov != nil {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "## Result provenance")
		fmt.Fprintln(w)
		fmt.Fprint(w, prov.Table())
	}
}

// Figures writes the Figures 2–9 table.
func Figures(w io.Writer) error {
	fmt.Fprintln(w, "## Figures 2–9: steady-state effective bandwidth")
	fmt.Fprintln(w)
	tbl := &textplot.Table{Header: []string{"figure", "measured", "paper", "cycle", "outcome"}}
	for _, f := range figures.All() {
		bw, cyc, err := f.SteadyBandwidth()
		if err != nil {
			return fmt.Errorf("report: Fig. %s: %w", f.ID, err)
		}
		paper := "(timeline only)"
		if f.WantBandwidth.Num != 0 {
			paper = f.WantBandwidth.String()
		}
		tbl.Add("Fig. "+f.ID, bw.String(), paper, cyc.Length, f.Outcome)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
	return nil
}

// PhaseHistograms writes the per-cycle conflict phase histograms of
// two reference regimes: the Fig. 3 barrier, where the bank conflicts
// delaying stream 2 recur at fixed phases of the 78-clock cycle, and
// the Fig. 7 memory with the conflict-free relative start replaced by
// an even offset, which drops both streams into the same section every
// clock. The histograms show *when* within the steady-state cycle each
// conflict kind clusters — the clock-by-clock anatomy behind the
// figures' b_eff values.
func PhaseHistograms(w io.Writer) error {
	fig3 := figures.Fig3()
	fig7 := figures.Fig7()
	// Fig. 7's b2 = (n_c+1)·d1 = 3 is what makes it conflict-free; an
	// even offset puts both same-CPU streams in the same section.
	conflicted := append([]memsys.StreamSpec(nil), fig7.Streams...)
	conflicted[1].Start = 2
	cases := []struct {
		title   string
		cfg     memsys.Config
		streams []memsys.StreamSpec
	}{
		{fig3.Title, fig3.Config, fig3.Streams},
		{"Fig. 7's section-conflict regime (m=12, s=2, nc=2, d1=d2=1, b2=2)", fig7.Config, conflicted},
	}
	fmt.Fprintln(w, "## Conflict phase histograms (cycle anatomy)")
	fmt.Fprintln(w)
	for _, c := range cases {
		h, _, err := obs.TracePhaseHistogram(c.cfg, c.streams, 1<<22)
		if err != nil {
			return fmt.Errorf("report: phase histogram %s: %w", c.title, err)
		}
		fmt.Fprintf(w, "### %s\n\n", c.title)
		fmt.Fprint(w, h.Render())
		fmt.Fprintln(w)
	}
	return nil
}

// grids writes the exhaustive cross-validation summary, including the
// section-theorem grid on the X-MP layout and the three-stream
// capacity-bound sweep, on the engine.
func grids(w io.Writer, systems [][2]int, eng *sweep.Engine) {
	fmt.Fprintln(w, "## Analytic model vs simulator (all pairs x all starts)")
	fmt.Fprintln(w)
	tbl := &textplot.Table{Header: []string{"m", "n_c", "pairs", "disagreements"}}
	for _, g := range systems {
		results := eng.Grid(g[0], g[1])
		s := sweep.Summarise(g[0], g[1], results)
		tbl.Add(g[0], g[1], s.Pairs, len(s.Disagree))
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Section theorems vs simulator (one CPU, s < m)")
	fmt.Fprintln(w)
	tbl = &textplot.Table{Header: []string{"m", "s", "n_c", "pairs", "disagreements"}}
	for _, g := range [][3]int{{12, 2, 2}, {16, 4, 4}} {
		results := eng.SectionGrid(g[0], g[1], g[2])
		bad := 0
		for _, r := range results {
			if !r.Agree {
				bad++
			}
		}
		tbl.Add(g[0], g[1], g[2], len(results), bad)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Three-stream capacity bounds")
	fmt.Fprintln(w)
	tr := sweep.SummariseSpecGrid(eng.SpecGrid(sweep.TripleCensusSpecs(12, 3, [3]int{0, 1, 2})))
	fmt.Fprintf(w, "m=12 n_c=3: %d triples at placement (0,1,2), bound attained by %d, violated by %d\n\n",
		tr.Triples, tr.TightStarts, tr.Violations)
	tg := sweep.SummariseTripleGrid(8, 2, eng.TripleGrid(8, 2))
	fmt.Fprintf(w, "m=8 n_c=2, all placements: %d triples over %d placements, bound attained somewhere by %d (%d placements), violated by %d\n\n",
		tg.Triples, tg.Starts, tg.TightSomewhere, tg.TightStarts, tg.Violations)
}

// PolicyComparison writes the policy-dimension comparison on the
// Fig. 8/9 reference placement: the same two unit-stride streams on
// one CPU of an m=12, s=3, n_c=3 memory, resolved under every
// arbitration priority and section mapping. Fixed priority with
// cyclic sections loses a third of the bandwidth to the recurring
// section conflict (Fig. 8a); cyclic priority shares the loss and
// recovers b_eff = 2 (Fig. 8b); the consecutive mapping removes the
// conflict outright (Fig. 9). Per-CPU round robin degenerates to
// fixed priority here because both streams issue from one CPU.
func PolicyComparison(w io.Writer, eng *sweep.Engine) error {
	rows := []struct {
		figure   string
		priority memsys.PriorityRule
		mapping  memsys.SectionMapping
	}{
		{"Fig. 8a", memsys.FixedPriority, memsys.CyclicSections},
		{"Fig. 8b", memsys.CyclicPriority, memsys.CyclicSections},
		{"-", memsys.RoundRobinPerCPU, memsys.CyclicSections},
		{"Fig. 9", memsys.FixedPriority, memsys.ConsecutiveSections},
		{"-", memsys.CyclicPriority, memsys.ConsecutiveSections},
	}
	fmt.Fprintln(w, "## Policy dimensions on the Fig. 8/9 placement (m=12, s=3, n_c=3, d1=d2=1, b2=1)")
	fmt.Fprintln(w)
	tbl := &textplot.Table{Header: []string{"figure", "priority", "mapping", "b_eff", "family"}}
	for _, r := range rows {
		spec := sweep.ConfigSpec{
			M: 12, S: 3, NC: 3,
			Streams: []sweep.Stream{{D: 1, B: 0, CPU: 0}, {D: 1, B: 1, CPU: 0}},
		}.WithPolicy(r.priority, r.mapping)
		res, err := eng.Resolve(spec)
		if err != nil {
			return fmt.Errorf("report: policy comparison %s/%s: %w", r.priority, r.mapping, err)
		}
		tbl.Add(r.figure, r.priority.String(), r.mapping.String(), res.BW.String(), res.Family)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
	return nil
}

// Triad writes the Fig. 10 tables with analytic verdicts.
func Triad(w io.Writer, n int) {
	cfg := machine.DefaultConfig()
	fmt.Fprintf(w, "## Fig. 10: the triad, n=%d, other CPU saturating at d=1\n\n", n)
	tbl := &textplot.Table{Header: []string{"INC", "clocks", "us", "bank", "section", "simult", "verdict"}}
	for _, r := range xmp.TriadSweep(16, n, true, cfg) {
		v := explain.TriadReport(r.INC).Verdicts[0]
		verdict := fmt.Sprintf("%d(+)%d %s", v.Canonical[0], v.Canonical[1], v.Analysis.Regime)
		if v.HasRole {
			if v.WorkWins {
				verdict += " (triad wins)"
			} else {
				verdict += " (triad delayed)"
			}
		}
		tbl.Add(r.INC, r.Clocks, fmt.Sprintf("%.1f", r.Micros), r.Bank, r.Section, r.Simultaneous, verdict)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## Fig. 10b: the triad with the other CPU off\n\n")
	tbl = &textplot.Table{Header: []string{"INC", "clocks", "us"}}
	for _, r := range xmp.TriadSweep(16, n, false, cfg) {
		tbl.Add(r.INC, r.Clocks, fmt.Sprintf("%.1f", r.Micros))
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
}

// Ablations writes the conclusion-driven studies.
func Ablations(w io.Writer, n, maxInc int) {
	cfg := machine.DefaultConfig()

	fmt.Fprintln(w, "## Multitasking the triad (conclusion)")
	fmt.Fprintln(w)
	tbl := &textplot.Table{Header: []string{"INC", "single", "split", "speedup"}}
	for _, r := range xmp.MultitaskSweep(maxInc, n, cfg) {
		tbl.Add(r.INC, r.SingleClocks, r.SplitClocks, fmt.Sprintf("%.2f", r.Speedup))
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Linear bank skewing on the full machine")
	fmt.Fprintln(w)
	tbl = &textplot.Table{Header: []string{"INC", "plain", "skewed"}}
	for inc := 1; inc <= maxInc; inc++ {
		p := xmp.TriadExperiment(inc, n, true, cfg)
		s := xmp.SkewedTriadExperiment(inc, n, xmp.LinearSkewMapper(), cfg)
		tbl.Add(inc, p.Clocks, s.Clocks)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Matrix access patterns (conclusion's dimensioning advice)")
	fmt.Fprintln(w)
	tbl = &textplot.Table{Header: []string{"ldim", "pattern", "distance", "ceiling", "clocks"}}
	for _, r := range xmp.MatrixStudy([]int{64, 65}, 192, cfg) {
		tbl.Add(r.LeadingDim, r.Pattern.String(), r.Distance, fmt.Sprintf("%.2f", r.Predicted), r.Clocks)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Classical random-access baselines (intro refs [1]-[5])")
	fmt.Fprintln(w)
	tbl = &textplot.Table{Header: []string{"distance", "vector", "random", "binomial", "Hellerman"}}
	for _, r := range randaccess.CompareStrides(16, 4, 4, []int{1, 8, 16}, 20000) {
		tbl.Add(r.Distance, fmt.Sprintf("%.3f", r.Vector), fmt.Sprintf("%.3f", r.Random),
			fmt.Sprintf("%.3f", r.Binomial), fmt.Sprintf("%.3f", randaccess.Hellerman(16)))
	}
	fmt.Fprint(w, tbl.String())
}
