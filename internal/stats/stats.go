// Package stats aggregates per-bank and per-clock statistics from a
// memsys simulation: bank utilisation (the fraction of clocks a bank is
// active), delay locations, grant-per-clock histograms and an overall
// bandwidth estimate. It attaches to a system as a memsys.Listener and
// is used by the CLIs and the experiment analyses to look *inside* an
// effective-bandwidth number.
package stats

import (
	"fmt"
	"strings"

	"ivm/internal/memsys"
	"ivm/internal/textplot"
)

// Collector accumulates statistics from simulation events.
type Collector struct {
	banks    int
	bankBusy int

	BankGrants []int64 // grants per bank
	BankDelays []int64 // delay events observed per bank
	KindCounts map[memsys.ConflictKind]int64

	// Per-port run-length bookkeeping: how long each port's current
	// streak of consecutive delayed clocks is, and the finished-run
	// histogram. Eq. 29's derivation predicts the run lengths of a
	// barrier: "the subsequent delay lasts (d2-d1)/f clock periods".
	runCur  map[int]int64
	runHist map[int]map[int64]int64

	firstClock int64
	lastClock  int64
	haveClock  bool

	curClock  int64
	curGrants int
	histogram []int64 // clocks with k grants; index k

	totalGrants int64
	totalDelays int64
}

// Attach creates a collector sized for the system's banks and installs
// it as the system's listener. The grant histogram grows with the most
// grants seen in one clock.
func Attach(sys *memsys.System) *Collector {
	c := &Collector{
		banks:      sys.Config().Banks,
		bankBusy:   sys.Config().BankBusy,
		BankGrants: make([]int64, sys.Config().Banks),
		BankDelays: make([]int64, sys.Config().Banks),
		KindCounts: make(map[memsys.ConflictKind]int64),
		histogram:  make([]int64, 1),
		runCur:     make(map[int]int64),
		runHist:    make(map[int]map[int64]int64),
	}
	sys.SetListener(c)
	return c
}

// Observe implements memsys.Listener.
func (c *Collector) Observe(e memsys.Event) {
	if !c.haveClock {
		c.firstClock = e.Clock
		c.curClock = e.Clock
		c.haveClock = true
	}
	if e.Clock != c.curClock {
		c.flushClock(e.Clock)
	}
	if e.Clock > c.lastClock {
		c.lastClock = e.Clock
	}
	if e.Kind == memsys.NoConflict {
		c.BankGrants[e.Bank]++
		c.totalGrants++
		c.curGrants++
		c.endRun(e.Port.ID)
		return
	}
	c.BankDelays[e.Bank]++
	c.totalDelays++
	c.KindCounts[e.Kind]++
	c.runCur[e.Port.ID]++
}

// endRun closes a port's current delay streak into the histogram.
func (c *Collector) endRun(port int) {
	n := c.runCur[port]
	if n == 0 {
		return
	}
	h := c.runHist[port]
	if h == nil {
		h = make(map[int64]int64)
		c.runHist[port] = h
	}
	h[n]++
	c.runCur[port] = 0
}

// DelayRunLengths returns the finished delay-run histogram of a port:
// for each streak length, how many times a run of exactly that many
// consecutive delayed clocks occurred. A barrier-situation produces
// runs of a single characteristic length ((d2-d1)/f, per Eq. 29's
// derivation).
func (c *Collector) DelayRunLengths(port int) map[int64]int64 {
	out := make(map[int64]int64, len(c.runHist[port]))
	for k, v := range c.runHist[port] {
		out[k] = v
	}
	return out
}

// flushClock records the finished clock's grant count and accounts the
// silent (eventless) clocks in between as zero-grant clocks.
func (c *Collector) flushClock(next int64) {
	c.bump(c.curGrants)
	for t := c.curClock + 1; t < next; t++ {
		c.bump(0)
	}
	c.curClock = next
	c.curGrants = 0
}

func (c *Collector) bump(k int) {
	for len(c.histogram) <= k {
		c.histogram = append(c.histogram, 0)
	}
	c.histogram[k]++
}

// ObservedClocks returns the number of clock periods covered by the
// observed events (inclusive of silent gaps between them).
func (c *Collector) ObservedClocks() int64 {
	if !c.haveClock {
		return 0
	}
	return c.lastClock - c.firstClock + 1
}

// Bandwidth returns grants per clock over the observation window — an
// estimate of b_eff that converges to the cyclic value for long runs.
func (c *Collector) Bandwidth() float64 {
	n := c.ObservedClocks()
	if n == 0 {
		return 0
	}
	return float64(c.totalGrants) / float64(n)
}

// Utilization returns the fraction of observed clocks the bank spent
// active (each grant occupies it for the bank busy time). The tail
// service of the final grants may extend past the window; the estimate
// is clamped to 1.
func (c *Collector) Utilization(bank int) float64 {
	n := c.ObservedClocks()
	if n == 0 {
		return 0
	}
	u := float64(c.BankGrants[bank]*int64(c.bankBusy)) / float64(n)
	if u > 1 {
		u = 1
	}
	return u
}

// GrantHistogram returns, for each k, the number of finished clocks in
// which exactly k requests were granted. Call after the run; the
// current (unfinished) clock is not included.
func (c *Collector) GrantHistogram() []int64 {
	out := make([]int64, len(c.histogram))
	copy(out, c.histogram)
	return out
}

// Snapshot is the JSON-serialisable view of a Collector, written by
// the CLIs' -metrics-out flag. It round-trips through JSON unchanged.
type Snapshot struct {
	Banks                 int       `json:"banks"`
	BankBusy              int       `json:"bank_busy"`
	ObservedClocks        int64     `json:"observed_clocks"`
	Grants                int64     `json:"grants"`
	Delays                int64     `json:"delays"`
	Bandwidth             float64   `json:"bandwidth"`
	BankConflicts         int64     `json:"bank_conflicts"`
	SimultaneousConflicts int64     `json:"simultaneous_conflicts"`
	SectionConflicts      int64     `json:"section_conflicts"`
	BankGrants            []int64   `json:"bank_grants"`
	BankDelays            []int64   `json:"bank_delays"`
	Utilization           []float64 `json:"utilization"`
	GrantHistogram        []int64   `json:"grant_histogram"`
}

// Snapshot exports the collector's aggregates in serialisable form.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Banks:                 c.banks,
		BankBusy:              c.bankBusy,
		ObservedClocks:        c.ObservedClocks(),
		Grants:                c.totalGrants,
		Delays:                c.totalDelays,
		Bandwidth:             c.Bandwidth(),
		BankConflicts:         c.KindCounts[memsys.BankConflict],
		SimultaneousConflicts: c.KindCounts[memsys.SimultaneousConflict],
		SectionConflicts:      c.KindCounts[memsys.SectionConflict],
		BankGrants:            append([]int64(nil), c.BankGrants...),
		BankDelays:            append([]int64(nil), c.BankDelays...),
		Utilization:           make([]float64, c.banks),
		GrantHistogram:        c.GrantHistogram(),
	}
	for b := 0; b < c.banks; b++ {
		s.Utilization[b] = c.Utilization(b)
	}
	return s
}

// Report renders a per-bank utilisation table plus the conflict-kind
// totals.
func (c *Collector) Report() string {
	var b strings.Builder
	tbl := &textplot.Table{Header: []string{"bank", "grants", "delays seen", "utilisation"}}
	for bank := 0; bank < c.banks; bank++ {
		tbl.Add(bank, c.BankGrants[bank], c.BankDelays[bank], fmt.Sprintf("%.3f", c.Utilization(bank)))
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "\nbandwidth estimate: %.4f grants/clock over %d clocks\n", c.Bandwidth(), c.ObservedClocks())
	fmt.Fprintf(&b, "delays: %d bank, %d simultaneous, %d section\n",
		c.KindCounts[memsys.BankConflict], c.KindCounts[memsys.SimultaneousConflict], c.KindCounts[memsys.SectionConflict])
	return b.String()
}
