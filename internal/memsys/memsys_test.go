package memsys

import (
	"testing"

	"ivm/internal/rat"
)

func cfg1(m, nc int) Config {
	return Config{Banks: m, BankBusy: nc, CPUs: 1}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"minimal", Config{Banks: 1, BankBusy: 1}, true},
		{"xmp", Config{Banks: 16, Sections: 4, BankBusy: 4, CPUs: 2}, true},
		{"zero banks", Config{Banks: 0, BankBusy: 1}, false},
		{"zero busy", Config{Banks: 4, BankBusy: 0}, false},
		{"sections not dividing", Config{Banks: 12, Sections: 5, BankBusy: 1}, false},
		{"sections equal banks", Config{Banks: 8, Sections: 8, BankBusy: 2}, true},
		{"negative cpus", Config{Banks: 4, BankBusy: 1, CPUs: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestModuloMapper(t *testing.T) {
	mm := ModuloMapper{M: 16}
	if mm.Banks() != 16 {
		t.Fatalf("Banks() = %d", mm.Banks())
	}
	cases := []struct {
		addr int64
		want int
	}{{0, 0}, {1, 1}, {16, 0}, {17, 1}, {-1, 15}, {-16, 0}, {16385, 1}}
	for _, c := range cases {
		if got := mm.Bank(c.addr); got != c.want {
			t.Errorf("Bank(%d) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestSectionMappingCyclicVsConsecutive(t *testing.T) {
	cyc := New(Config{Banks: 12, Sections: 3, BankBusy: 1, Mapping: CyclicSections})
	con := New(Config{Banks: 12, Sections: 3, BankBusy: 1, Mapping: ConsecutiveSections})
	for b := 0; b < 12; b++ {
		if got, want := cyc.Section(b), b%3; got != want {
			t.Errorf("cyclic Section(%d) = %d, want %d", b, got, want)
		}
		if got, want := con.Section(b), b/4; got != want {
			t.Errorf("consecutive Section(%d) = %d, want %d", b, got, want)
		}
	}
}

// A single stream with r >= nc runs at full speed: one grant per clock.
func TestSingleStreamFullBandwidth(t *testing.T) {
	sys := New(cfg1(8, 4))
	sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
	got := sys.Run(100)
	if got != 100 {
		t.Fatalf("grants = %d, want 100", got)
	}
	if c := sys.ports[0].Count; c.Delays() != 0 {
		t.Fatalf("unexpected delays: %+v", c)
	}
}

// Section III-A: a single stream with r < nc self-conflicts at its start
// bank; b_eff = r/nc.
func TestSingleStreamSelfConflict(t *testing.T) {
	cases := []struct {
		m, nc, d int
		want     rat.Rational
	}{
		{8, 4, 2, rat.One()},      // r=4 = nc: exactly no self conflict
		{8, 4, 4, rat.New(2, 4)},  // r=2 < nc=4
		{8, 4, 0, rat.New(1, 4)},  // r=1
		{16, 4, 8, rat.New(2, 4)}, // r=2
		{16, 4, 6, rat.One()},     // r=8 > nc
		{12, 6, 4, rat.New(3, 6)}, // r=3 < 6
		{13, 6, 5, rat.One()},     // r=13, prime
		{6, 5, 3, rat.New(2, 5)},  // r=2 < 5
	}
	for _, c := range cases {
		sys := New(cfg1(c.m, c.nc))
		sys.AddPort(0, "1", NewInfiniteStrided(0, int64(c.d)))
		cyc, err := sys.FindCycle(100000)
		if err != nil {
			t.Fatalf("m=%d nc=%d d=%d: %v", c.m, c.nc, c.d, err)
		}
		if got := cyc.EffectiveBandwidth(); !got.Equal(c.want) {
			t.Errorf("m=%d nc=%d d=%d: b_eff = %s, want %s", c.m, c.nc, c.d, got, c.want)
		}
	}
}

// The single-stream bank conflict always occurs at the start bank
// (Section III-A), so only the start bank's row ever shows delays.
func TestSingleStreamConflictAtStartBankOnly(t *testing.T) {
	sys := New(cfg1(8, 4))
	events := &eventLog{}
	sys.SetListener(events)
	sys.AddPort(0, "1", NewInfiniteStrided(3, 4)) // banks 3,7,3,7,... r=2 < nc
	sys.Run(64)
	for _, e := range events.delays {
		if e.Bank != 3 && e.Bank != 7 {
			t.Fatalf("delay at bank %d, expected only at revisited banks", e.Bank)
		}
		if e.Kind != BankConflict {
			t.Fatalf("single stream produced %v", e.Kind)
		}
	}
	if len(events.delays) == 0 {
		t.Fatal("expected self-conflicts")
	}
}

type eventLog struct {
	grants []Event
	delays []Event
}

func (l *eventLog) Observe(e Event) {
	if e.Kind == NoConflict {
		l.grants = append(l.grants, e)
	} else {
		l.delays = append(l.delays, e)
	}
}

// Two ports of different CPUs hitting the same idle bank in the same
// clock: the loser records a simultaneous bank conflict.
func TestSimultaneousBankConflict(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 2, CPUs: 2})
	p1 := sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
	p2 := sys.AddPort(1, "2", NewInfiniteStrided(0, 1))
	sys.Step()
	if p1.Count.Grants != 1 {
		t.Fatalf("port 1 grants = %d, want 1 (fixed priority)", p1.Count.Grants)
	}
	if p2.Count.Simultaneous != 1 || p2.Count.Grants != 0 {
		t.Fatalf("port 2 counters = %+v, want one simultaneous conflict", p2.Count)
	}
}

// Two ports of the same CPU hitting the same idle bank: by the paper's
// taxonomy this is a section conflict (they would need the same path).
func TestSameCPUSameBankIsSectionConflict(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 2, CPUs: 1})
	sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
	p2 := sys.AddPort(0, "2", NewInfiniteStrided(0, 1))
	sys.Step()
	if p2.Count.Section != 1 || p2.Count.Simultaneous != 0 {
		t.Fatalf("port 2 counters = %+v, want one section conflict", p2.Count)
	}
}

// Two ports of the same CPU hitting different banks of the same section
// conflict on the path; different CPUs do not.
func TestSectionPathConflict(t *testing.T) {
	cfgSame := Config{Banks: 8, Sections: 2, BankBusy: 2, CPUs: 1}
	sys := New(cfgSame)
	sys.AddPort(0, "1", NewInfiniteStrided(0, 1))       // bank 0, section 0
	p2 := sys.AddPort(0, "2", NewInfiniteStrided(2, 1)) // bank 2, section 0
	sys.Step()
	if p2.Count.Section != 1 {
		t.Fatalf("same CPU: counters = %+v, want section conflict", p2.Count)
	}

	cfgDiff := cfgSame
	cfgDiff.CPUs = 2
	sys = New(cfgDiff)
	sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
	p2 = sys.AddPort(1, "2", NewInfiniteStrided(2, 1))
	sys.Step()
	if p2.Count.Delays() != 0 {
		t.Fatalf("different CPUs: counters = %+v, want no conflict", p2.Count)
	}
}

// A delayed request and everything behind it waits: dynamic conflict
// resolution preserves stream order and total counts.
func TestFiniteStreamsConservation(t *testing.T) {
	sys := New(Config{Banks: 4, BankBusy: 3, CPUs: 2})
	p1 := sys.AddPort(0, "1", &StridedSource{Addr: 0, Stride: 1, Remaining: 37})
	p2 := sys.AddPort(1, "2", &StridedSource{Addr: 0, Stride: 2, Remaining: 23})
	clocks, done := sys.RunUntilDone(10000)
	if !done {
		t.Fatalf("not done after %d clocks", clocks)
	}
	if p1.Count.Grants != 37 || p2.Count.Grants != 23 {
		t.Fatalf("grants = %d/%d, want 37/23", p1.Count.Grants, p2.Count.Grants)
	}
}

// Bank busy time: after a grant the bank rejects requests for exactly
// nc-1 further clocks.
func TestBankBusyWindow(t *testing.T) {
	for nc := 1; nc <= 5; nc++ {
		sys := New(cfg1(4, nc))
		// Second port hammers bank 0 every clock; first port touches
		// bank 0 once at clock 0.
		sys.AddPort(0, "1", &StridedSource{Addr: 0, Stride: 1, Remaining: 1})
		p2 := sys.AddPort(0, "2", NewInfiniteStrided(0, 0))
		for i := 0; i < nc; i++ {
			sys.Step()
		}
		// p2 was blocked at clock 0 (same bank, same CPU: section
		// conflict) and then bank-conflicted for nc-1 clocks.
		if int(p2.Count.Delays()) != nc {
			t.Fatalf("nc=%d: p2 delays = %d, want %d", nc, p2.Count.Delays(), nc)
		}
		sys.Step()
		if p2.Count.Grants != 1 {
			t.Fatalf("nc=%d: p2 not granted when bank freed", nc)
		}
	}
}

func TestFixedPriorityWinsByID(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 1, CPUs: 2})
	sys.AddPort(0, "1", NewInfiniteStrided(5, 0))
	sys.AddPort(1, "2", NewInfiniteStrided(5, 0))
	for i := 0; i < 10; i++ {
		sys.Step()
	}
	// With nc=1 the bank frees every clock; port 0 always wins the
	// simultaneous conflict under fixed priority.
	if g := sys.ports[0].Count.Grants; g != 10 {
		t.Fatalf("port 0 grants = %d, want 10", g)
	}
	if g := sys.ports[1].Count.Grants; g != 0 {
		t.Fatalf("port 1 grants = %d, want 0", g)
	}
}

func TestCyclicPriorityAlternates(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 1, CPUs: 2, Priority: CyclicPriority})
	sys.AddPort(0, "1", NewInfiniteStrided(5, 0))
	sys.AddPort(1, "2", NewInfiniteStrided(5, 0))
	for i := 0; i < 10; i++ {
		sys.Step()
	}
	g0 := sys.ports[0].Count.Grants
	g1 := sys.ports[1].Count.Grants
	if g0 != 5 || g1 != 5 {
		t.Fatalf("grants = %d/%d, want 5/5 under rotating priority", g0, g1)
	}
}

// delayedSource wraps a source so that it starts issuing only at clock
// startAt: a port with nothing pending, then a late start.
type delayedSource struct {
	startAt int64
	inner   Source
}

func (d *delayedSource) Pending(clock int64) (int64, bool) {
	if clock < d.startAt {
		return 0, false
	}
	return d.inner.Pending(clock)
}

func (d *delayedSource) Grant(clock int64) { d.inner.Grant(clock) }

func (d *delayedSource) Done() bool { return d.inner.Done() }

func TestDelayedSourceStartsLate(t *testing.T) {
	sys := New(cfg1(8, 2))
	p := sys.AddPort(0, "1", &delayedSource{startAt: 3, inner: &StridedSource{Addr: 0, Stride: 1, Remaining: 4}})
	sys.Run(3)
	if p.Count.Grants != 0 || p.Count.Idle != 3 {
		t.Fatalf("before StartAt: %+v", p.Count)
	}
	sys.Run(4)
	if p.Count.Grants != 4 {
		t.Fatalf("after StartAt: grants = %d, want 4", p.Count.Grants)
	}
}

func TestSequenceSource(t *testing.T) {
	sys := New(cfg1(8, 1))
	p := sys.AddPort(0, "1", &SequenceSource{Addrs: []int64{7, 7, 3}})
	clocks, done := sys.RunUntilDone(100)
	if !done {
		t.Fatal("sequence source never finished")
	}
	// 7 at clock 0; 7 again must wait for the bank (nc=1: free next
	// clock); 3 at clock 2.
	if clocks != 3 || p.Count.Grants != 3 {
		t.Fatalf("clocks = %d grants = %d, want 3/3", clocks, p.Count.Grants)
	}
}

func TestSequenceSourceBankConflictOnRepeat(t *testing.T) {
	sys := New(cfg1(8, 4))
	p := sys.AddPort(0, "1", &SequenceSource{Addrs: []int64{7, 7}})
	sys.RunUntilDone(100)
	if p.Count.Bank != 3 {
		t.Fatalf("bank conflicts = %d, want 3 (waiting out nc-1 busy clocks)", p.Count.Bank)
	}
}

func TestIdleSource(t *testing.T) {
	sys := New(cfg1(4, 1))
	sys.AddPort(0, "1", IdleSource{})
	clocks, done := sys.RunUntilDone(10)
	if !done || clocks != 0 {
		t.Fatalf("idle system: clocks=%d done=%v", clocks, done)
	}
}

func TestAddPortBadCPU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddPort with out-of-range CPU did not panic")
		}
	}()
	sys := New(Config{Banks: 4, BankBusy: 1, CPUs: 1})
	sys.AddPort(1, "x", IdleSource{})
}

func TestFindCycleRejectsFiniteSources(t *testing.T) {
	sys := New(cfg1(4, 1))
	sys.AddPort(0, "1", &StridedSource{Addr: 0, Stride: 1, Remaining: 10})
	if _, err := sys.FindCycle(1000); err == nil {
		t.Fatal("FindCycle accepted a finite source")
	}
}

func TestFindCycleLeadAndLength(t *testing.T) {
	// Single stream, m=4, nc=2, d=1: conflict-free from the start;
	// the cycle has bandwidth 1.
	sys := New(cfg1(4, 2))
	sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
	c, err := sys.FindCycle(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.EffectiveBandwidth().Equal(rat.One()) {
		t.Fatalf("b_eff = %s, want 1", c.EffectiveBandwidth())
	}
	if c.TotalGrants() != c.Length {
		t.Fatalf("grants %d != length %d for a full-speed stream", c.TotalGrants(), c.Length)
	}
	if got := c.PortBandwidth(0); !got.Equal(rat.One()) {
		t.Fatalf("PortBandwidth(0) = %s", got)
	}
}

func TestSteadyBandwidthHelper(t *testing.T) {
	bw, err := SteadyBandwidth(Config{Banks: 12, BankBusy: 3, CPUs: 2}, 1<<16,
		StreamSpec{Start: 0, Distance: 1, CPU: 0},
		StreamSpec{Start: 3, Distance: 7, CPU: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !bw.Equal(rat.New(2, 1)) {
		t.Fatalf("b_eff = %s, want 2 (Fig. 2)", bw)
	}
}

// Invariant check: a granted bank must have been idle, at most one
// grant per bank per clock, at most one grant per (CPU, section) path
// per clock, and ports never exceed one grant per clock.
func TestSimulatorInvariants(t *testing.T) {
	cfgs := []Config{
		{Banks: 16, Sections: 4, BankBusy: 4, CPUs: 2},
		{Banks: 12, Sections: 3, BankBusy: 3, CPUs: 1},
		{Banks: 13, BankBusy: 6, CPUs: 2},
		{Banks: 8, Sections: 2, BankBusy: 2, CPUs: 2, Priority: CyclicPriority},
		{Banks: 12, Sections: 4, BankBusy: 5, CPUs: 2, Mapping: ConsecutiveSections},
	}
	specsets := [][]StreamSpec{
		{{Start: 0, Distance: 1}, {Start: 1, Distance: 2, CPU: 0}},
		{{Start: 0, Distance: 1}, {Start: 5, Distance: 3}},
		{{Start: 2, Distance: 7}, {Start: 0, Distance: 5}},
	}
	for _, cfg := range cfgs {
		for _, specs := range specsets {
			sys := New(cfg)
			inv := newInvariantChecker(t, sys)
			sys.SetListener(inv)
			for i, sp := range specs {
				cpu := sp.CPU % cfg.cpus()
				sys.AddPort(cpu, string(rune('1'+i)), NewInfiniteStrided(int64(sp.Start), int64(sp.Distance)))
			}
			for i := 0; i < 500; i++ {
				inv.beginClock(sys.Clock())
				sys.Step()
			}
		}
	}
}

type invariantChecker struct {
	t         *testing.T
	sys       *System
	clock     int64
	bankGrant map[int]bool
	pathGrant map[[2]int]bool
	portGrant map[int]bool
	lastGrant map[int]int64
}

func newInvariantChecker(t *testing.T, sys *System) *invariantChecker {
	return &invariantChecker{t: t, sys: sys, lastGrant: make(map[int]int64)}
}

func (ic *invariantChecker) beginClock(clock int64) {
	// Decrement our shadow busy counters for all clocks since last call.
	ic.clock = clock
	ic.bankGrant = make(map[int]bool)
	ic.pathGrant = make(map[[2]int]bool)
	ic.portGrant = make(map[int]bool)
}

func (ic *invariantChecker) Observe(e Event) {
	if e.Clock != ic.clock {
		ic.t.Fatalf("event clock %d, expected %d", e.Clock, ic.clock)
	}
	if e.Kind != NoConflict {
		if e.Blocker == nil && e.Kind != BankConflict {
			ic.t.Fatalf("%v without blocker", e.Kind)
		}
		return
	}
	if ic.lastGrantClock(e.Bank)+int64(ic.sys.Config().BankBusy) > e.Clock {
		ic.t.Fatalf("clock %d: bank %d granted while busy", e.Clock, e.Bank)
	}
	if ic.bankGrant[e.Bank] {
		ic.t.Fatalf("clock %d: bank %d granted twice", e.Clock, e.Bank)
	}
	ic.bankGrant[e.Bank] = true
	key := [2]int{e.Port.CPU, ic.sys.Section(e.Bank)}
	if ic.pathGrant[key] {
		ic.t.Fatalf("clock %d: path cpu=%d section=%d granted twice", e.Clock, key[0], key[1])
	}
	ic.pathGrant[key] = true
	if ic.portGrant[e.Port.ID] {
		ic.t.Fatalf("clock %d: port %d granted twice", e.Clock, e.Port.ID)
	}
	ic.portGrant[e.Port.ID] = true
	ic.recordGrant(e.Bank, e.Clock)
}

func (ic *invariantChecker) recordGrant(bank int, clock int64) {
	ic.lastGrant[bank] = clock
}

func (ic *invariantChecker) lastGrantClock(bank int) int64 {
	if c, ok := ic.lastGrant[bank]; ok {
		return c
	}
	return -1 << 60
}
