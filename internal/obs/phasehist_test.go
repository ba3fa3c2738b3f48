package obs

import (
	"bytes"
	"strings"
	"testing"

	"ivm/internal/memsys"
)

// fig3Specs is the Fig. 3 barrier (m=13, nc=6, d1=1, d2=6) as stream
// specs: stream 2 is delayed by bank conflicts every cycle, so the
// phase histogram has both grant and bank-conflict structure.
var fig3Cfg = memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2}

var fig3Specs = []memsys.StreamSpec{
	{Start: 0, Distance: 1, CPU: 0},
	{Start: 0, Distance: 6, CPU: 1},
}

func TestPhaseHistogramMatchesCycleTotals(t *testing.T) {
	h, cyc, err := TracePhaseHistogram(fig3Cfg, fig3Specs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if h.CycleLength != cyc.Length || h.CycleStart != cyc.Lead {
		t.Fatalf("histogram geometry (%d,%d) disagrees with cycle (lead %d, length %d)",
			h.CycleStart, h.CycleLength, cyc.Lead, cyc.Length)
	}
	// FindCycle stops one full period after the cyclic state is first
	// entered, so the trace holds exactly one repetition: the histogram
	// totals must equal the cycle's per-period counters exactly.
	var wantBank, wantSim, wantSec int64
	for _, c := range cyc.Conflicts {
		wantBank += c.Bank
		wantSim += c.Simultaneous
		wantSec += c.Section
	}
	got := totals(h)
	if got.Grants != cyc.TotalGrants() || got.Bank != wantBank || got.Simultaneous != wantSim || got.Section != wantSec {
		t.Errorf("histogram totals %+v, cycle says grants=%d bank=%d sim=%d sec=%d",
			got, cyc.TotalGrants(), wantBank, wantSim, wantSec)
	}
	// The transient is accounted, not silently dropped.
	if cyc.Lead > 0 && h.LeadEvents == 0 {
		t.Errorf("lead of %d clocks produced no lead events", cyc.Lead)
	}
	if int64(len(h.Phases)) != cyc.Length {
		t.Fatalf("%d phases for cycle length %d", len(h.Phases), cyc.Length)
	}
	// Per-bank counts are consistent with the per-phase totals.
	for p := range h.Phases {
		var grants, delays int64
		for b := 0; b < h.Banks; b++ {
			grants += h.BankGrants[p][b]
			delays += h.BankDelays[p][b]
		}
		if grants != h.Phases[p].Grants {
			t.Errorf("phase %d: bank grants sum %d != phase grants %d", p, grants, h.Phases[p].Grants)
		}
		if ph := h.Phases[p]; delays != ph.Bank+ph.Simultaneous+ph.Section {
			t.Errorf("phase %d: bank delays sum %d != phase delays %+v", p, delays, ph)
		}
	}
}

func TestPhaseHistogramSectionKinds(t *testing.T) {
	// Two streams of one CPU into a sectioned memory: section conflicts
	// must appear in the histogram's kind split.
	cfg := memsys.Config{Banks: 12, Sections: 2, BankBusy: 2, CPUs: 1}
	specs := []memsys.StreamSpec{
		{Start: 0, Distance: 2, CPU: 0},
		{Start: 2, Distance: 2, CPU: 0},
	}
	h, _, err := TracePhaseHistogram(cfg, specs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if totals(h).Section == 0 {
		t.Errorf("sectioned same-CPU streams produced no section conflicts: %+v", totals(h))
	}
}

func TestPhaseHistogramFoldsRepetitions(t *testing.T) {
	// Run several repetitions through a plain tracer; every repetition
	// folds onto the same phases, so the histogram is k × one period.
	sys := memsys.New(fig3Cfg)
	tr := Attach(sys, DefaultTracerCapacity)
	sys.AddStreams(fig3Specs...)
	cyc, err := sys.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	one := BuildPhaseHistogram(tr.Events(), fig3Cfg.Banks, cyc.Lead, cyc.Length)
	const reps = 5
	sys.Run(cyc.Length * (reps - 1)) // tracer keeps observing
	many := BuildPhaseHistogram(tr.Events(), fig3Cfg.Banks, cyc.Lead, cyc.Length)
	for p := range many.Phases {
		if many.Phases[p].Grants != reps*one.Phases[p].Grants ||
			many.Phases[p].Bank != reps*one.Phases[p].Bank {
			t.Fatalf("phase %d does not scale with repetitions: one=%+v many=%+v",
				p, one.Phases[p], many.Phases[p])
		}
	}
}

func TestPhaseHistogramGolden(t *testing.T) {
	h, _, err := TracePhaseHistogram(fig3Cfg, fig3Specs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "phasehist.txt", []byte(h.Render()))

	var buf bytes.Buffer
	if err := WritePhaseCSV(&buf, h); err != nil {
		t.Fatal(err)
	}
	golden(t, "phasehist.csv", buf.Bytes())

	// Structural checks so the golden cannot rot silently.
	out := h.Render()
	for _, want := range []string{"phase histogram", "grants by bank", "scale:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantRows := int(h.CycleLength)*h.Banks + 1
	if len(lines) != wantRows {
		t.Errorf("CSV has %d lines, want %d", len(lines), wantRows)
	}
	if lines[0] != "phase,bank,grants,delays,phase_grants,phase_bank,phase_simultaneous,phase_section" {
		t.Errorf("bad CSV header %q", lines[0])
	}
}

func TestPhaseHistogramBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero cycle length did not panic")
		}
	}()
	BuildPhaseHistogram(nil, 4, 0, 0)
}

// totals sums the histogram over all phases, the per-run view the
// pre-histogram tracer reported; on a trace that covers whole cycle
// repetitions these match the tracer's cyclic-regime counters.
func totals(h PhaseHistogram) PhaseCounts {
	var t PhaseCounts
	for _, p := range h.Phases {
		t.Grants += p.Grants
		t.Bank += p.Bank
		t.Simultaneous += p.Simultaneous
		t.Section += p.Section
	}
	return t
}
