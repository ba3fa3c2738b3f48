package obs

import (
	"fmt"
	"io"
	"strings"

	"ivm/internal/memsys"
	"ivm/internal/textplot"
)

// Per-cycle conflict phase histograms: once FindCycle has located the
// steady state (lead L, period T), every traced event at clock t >=
// start+L belongs to phase (t - start - L) mod T of the cycle. Binning
// grants and delays by that phase — per bank and per conflict kind —
// shows *when within the cycle* the paper's three conflict classes
// cluster, clock by clock, instead of only their per-run totals. The
// ring may hold many repetitions of the cycle; they all fold onto the
// same T phases, so the histogram is the cycle's signature regardless
// of how long the trace ran.

// PhaseCounts is the event census of one clock phase of the cycle:
// grants plus the three delay classes, exactly the paper's taxonomy.
type PhaseCounts struct {
	Grants       int64 `json:"grants"`
	Bank         int64 `json:"bank"`
	Simultaneous int64 `json:"simultaneous"`
	Section      int64 `json:"section"`
}

// PhaseHistogram bins a traced window by clock phase within a detected
// steady-state cycle. Phases holds the per-kind totals of each phase;
// BankGrants and BankDelays resolve each phase further per bank
// (indexed [phase][bank]). Counts accumulate over every repetition of
// the cycle present in the window.
type PhaseHistogram struct {
	// CycleStart is the absolute clock of phase 0 (trace start + lead).
	CycleStart int64 `json:"cycle_start"`
	// CycleLength is the period T of the steady state in clocks.
	CycleLength int64 `json:"cycle_length"`
	// Banks is the number of banks of the traced system.
	Banks int `json:"banks"`
	// Events counts the binned events; LeadEvents the window events
	// before CycleStart, which belong to the transient and are skipped.
	Events     int64 `json:"events"`
	LeadEvents int64 `json:"lead_events"`
	// Phases is indexed by phase in [0, CycleLength).
	Phases []PhaseCounts `json:"phases"`
	// BankGrants[p][b] counts grants of bank b at phase p; BankDelays
	// the delayed requests aimed at bank b at phase p (any kind).
	BankGrants [][]int64 `json:"bank_grants"`
	BankDelays [][]int64 `json:"bank_delays"`
}

// BuildPhaseHistogram bins events into the cycle phases of a steady
// state with period cycleLength whose phase 0 falls on absolute clock
// cycleStart (trace start + FindCycle's lead). Events before
// cycleStart are counted as LeadEvents and otherwise ignored. It
// panics on non-positive geometry (programming error, matching the
// other exporters).
func BuildPhaseHistogram(events []Event, banks int, cycleStart, cycleLength int64) PhaseHistogram {
	if banks <= 0 || cycleLength <= 0 {
		panic(fmt.Sprintf("obs: bad phase histogram geometry banks=%d cycle=%d", banks, cycleLength))
	}
	h := PhaseHistogram{
		CycleStart:  cycleStart,
		CycleLength: cycleLength,
		Banks:       banks,
		Phases:      make([]PhaseCounts, cycleLength),
		BankGrants:  make([][]int64, cycleLength),
		BankDelays:  make([][]int64, cycleLength),
	}
	for p := range h.BankGrants {
		h.BankGrants[p] = make([]int64, banks)
		h.BankDelays[p] = make([]int64, banks)
	}
	for _, e := range events {
		if e.Clock < cycleStart {
			h.LeadEvents++
			continue
		}
		p := (e.Clock - cycleStart) % cycleLength
		h.Events++
		switch e.Kind {
		case memsys.NoConflict:
			h.Phases[p].Grants++
			h.BankGrants[p][e.Bank]++
		case memsys.BankConflict:
			h.Phases[p].Bank++
			h.BankDelays[p][e.Bank]++
		case memsys.SimultaneousConflict:
			h.Phases[p].Simultaneous++
			h.BankDelays[p][e.Bank]++
		case memsys.SectionConflict:
			h.Phases[p].Section++
			h.BankDelays[p][e.Bank]++
		}
	}
	return h
}

// TracePhaseHistogram runs steady-state detection on a freshly built
// system with a tracer attached and returns the cycle together with
// its phase histogram — the one-call path ivmsim and ivmreport use.
// The system must contain only infinite strided streams (FindCycle's
// requirement). The tracer runs at the default ring capacity, which
// holds the whole search on paper-sized systems; on longer searches
// the ring keeps the most recent window, which still covers the
// cyclic regime (the phases fold onto the same histogram wherever the
// window starts inside the steady state).
func TracePhaseHistogram(cfg memsys.Config, specs []memsys.StreamSpec, maxClocks int64) (PhaseHistogram, memsys.Cycle, error) {
	sys := memsys.New(cfg)
	tr := Attach(sys, DefaultTracerCapacity)
	sys.AddStreams(specs...)
	cyc, err := sys.FindCycle(maxClocks)
	if err != nil {
		return PhaseHistogram{}, memsys.Cycle{}, fmt.Errorf("obs: phase histogram: %w", err)
	}
	return BuildPhaseHistogram(tr.Events(), cfg.Banks, cyc.Lead, cyc.Length), cyc, nil
}

// Render formats the histogram as the textplot view: a per-phase
// conflict table (grants and the three delay kinds) followed by the
// bank × phase grant heatmap, so both the *when* and the *where* of
// the cycle are visible at once. Deterministic output, suitable for
// golden files.
func (h PhaseHistogram) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase histogram: cycle of %d clocks starting at clock %d (%d events, %d in lead-in)\n",
		h.CycleLength, h.CycleStart, h.Events, h.LeadEvents)
	tbl := &textplot.Table{Header: []string{"phase", "grants", "bank", "simult", "section"}}
	for p, c := range h.Phases {
		tbl.Add(p, c.Grants, c.Bank, c.Simultaneous, c.Section)
	}
	b.WriteString(tbl.String())

	rows := make([][]float64, h.Banks)
	labels := make([]string, h.Banks)
	width := len(fmt.Sprintf("%d", h.Banks-1))
	for bank := 0; bank < h.Banks; bank++ {
		labels[bank] = fmt.Sprintf("bank %*d", width, bank)
		rows[bank] = make([]float64, len(h.Phases))
		for p := range h.Phases {
			rows[bank][p] = float64(h.BankGrants[p][bank])
		}
	}
	b.WriteString(textplot.Heatmap("grants by bank (rows) and cycle phase (columns):", labels, rows))
	return b.String()
}

// WritePhaseCSV exports the histogram in long form, one row per
// (phase, bank): the per-bank grant and delay counts plus the phase's
// per-kind totals (repeated on each of its rows, so any row is
// self-describing for grep/awk pipelines).
func WritePhaseCSV(w io.Writer, h PhaseHistogram) error {
	if _, err := fmt.Fprintln(w, "phase,bank,grants,delays,phase_grants,phase_bank,phase_simultaneous,phase_section"); err != nil {
		return err
	}
	for p := range h.Phases {
		c := h.Phases[p]
		for bank := 0; bank < h.Banks; bank++ {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n",
				p, bank, h.BankGrants[p][bank], h.BankDelays[p][bank],
				c.Grants, c.Bank, c.Simultaneous, c.Section); err != nil {
				return err
			}
		}
	}
	return nil
}
