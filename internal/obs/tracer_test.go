package obs

import (
	"testing"

	"ivm/internal/memsys"
)

// fig3 builds the paper's Fig. 3 barrier (m=13, nc=6, d1=1, d2=6):
// stream 2 is delayed by bank conflicts in the steady state, so the
// tracer sees both grants and classified delays.
func fig3() (*memsys.System, []*memsys.Port) {
	sys := memsys.New(memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2})
	return sys, []*memsys.Port{
		sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1)),
		sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 6)),
	}
}

func TestTracerCountsMatchPortCounters(t *testing.T) {
	sys, ports := fig3()
	tr := Attach(sys, DefaultTracerCapacity)
	sys.Run(200)

	var wantGrants, wantBank, wantSim, wantSec int64
	for _, p := range ports {
		wantGrants += p.Count.Grants
		wantBank += p.Count.Bank
		wantSim += p.Count.Simultaneous
		wantSec += p.Count.Section
	}
	s := tr.Stats()
	if s.Grants != wantGrants {
		t.Errorf("grants %d, ports say %d", s.Grants, wantGrants)
	}
	if s.Delays != wantBank+wantSim+wantSec {
		t.Errorf("delays %d, ports say %d", s.Delays, wantBank+wantSim+wantSec)
	}
	if s.BankConflicts != wantBank || s.SimultaneousConflicts != wantSim || s.SectionConflicts != wantSec {
		t.Errorf("conflicts bank/simult/section %d/%d/%d, ports say %d/%d/%d",
			s.BankConflicts, s.SimultaneousConflicts, s.SectionConflicts, wantBank, wantSim, wantSec)
	}
	if s.Recorded != int64(len(tr.Events()))+s.Dropped {
		t.Errorf("recorded %d != ring %d + dropped %d", s.Recorded, len(tr.Events()), s.Dropped)
	}
	if s.FirstClock != 0 || s.LastClock != 199 {
		t.Errorf("clocks [%d, %d], want [0, 199]", s.FirstClock, s.LastClock)
	}
	if s.Bandwidth <= 0 || s.Bandwidth > 2 {
		t.Errorf("bandwidth estimate %v out of range", s.Bandwidth)
	}
}

// TestTracerSizedRingKeepsEveryEvent: a ring of clocks × ports events
// holds a whole run, since each port yields at most one event per
// clock. On a contended sectioned run, with all three conflict kinds,
// nothing is dropped and the retained events carry every port's grants
// and delays.
func TestTracerSizedRingKeepsEveryEvent(t *testing.T) {
	const clocks = 512
	sys, ports := contendedSystem()
	tr := Attach(sys, clocks*len(ports))
	sys.Run(clocks)
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("sized ring dropped %d events", d)
	}
	got := make([]memsys.Counters, len(ports))
	for _, e := range tr.Events() {
		c := &got[e.Port]
		switch e.Kind {
		case memsys.NoConflict:
			c.Grants++
		case memsys.BankConflict:
			c.Bank++
		case memsys.SimultaneousConflict:
			c.Simultaneous++
		case memsys.SectionConflict:
			c.Section++
		}
	}
	var kinds [4]int64
	for i, p := range ports {
		want := p.Count
		if got[i].Grants != want.Grants || got[i].Bank != want.Bank ||
			got[i].Simultaneous != want.Simultaneous || got[i].Section != want.Section {
			t.Errorf("port %d: events give %+v, port counters %+v", i, got[i], want)
		}
		kinds[0] += want.Grants
		kinds[1] += want.Bank
		kinds[2] += want.Simultaneous
		kinds[3] += want.Section
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("run has no events of kind %v; want a contended run", memsys.ConflictKind(k))
		}
	}
	st := tr.Stats()
	if st.Grants != kinds[0] || st.BankConflicts != kinds[1] ||
		st.SimultaneousConflicts != kinds[2] || st.SectionConflicts != kinds[3] {
		t.Errorf("stats %+v, port counters give %v", st, kinds)
	}
}

func TestTracerEventsAreValueCopies(t *testing.T) {
	sys, _ := fig3()
	tr := Attach(sys, 64)
	sys.Run(20)
	for _, e := range tr.Events() {
		if e.Bank < 0 || e.Bank >= 13 {
			t.Fatalf("bank %d out of range", e.Bank)
		}
		if e.Granted() && e.Blocker != -1 {
			t.Fatalf("grant with blocker %d", e.Blocker)
		}
		if !e.Granted() && e.Blocker < 0 {
			t.Fatalf("delay without blocker: %+v", e)
		}
	}
}

func TestTracerRingWrapKeepsMostRecent(t *testing.T) {
	sys, _ := fig3()
	tr := Attach(sys, 16)
	sys.Run(100)

	events := tr.Events()
	if len(events) != 16 {
		t.Fatalf("ring holds %d events, capacity 16", len(events))
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops after 100 clocks with capacity 16")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Clock < events[i-1].Clock {
			t.Fatalf("events out of order at %d: %d < %d", i, events[i].Clock, events[i-1].Clock)
		}
	}
	// The ring keeps the tail of the run: its last event is the last
	// observed clock.
	if got := events[len(events)-1].Clock; got != tr.Stats().LastClock {
		t.Errorf("ring tail clock %d, last observed %d", got, tr.Stats().LastClock)
	}
}

func TestTeeFansOut(t *testing.T) {
	sys, _ := fig3()
	a := NewTracer(0)
	b := NewTracer(0)
	sys.SetListener(Tee{a, nil, b})
	sys.Run(50)
	if sa, sb := a.Stats(), b.Stats(); sa.Grants == 0 || sa != sb {
		t.Errorf("tee divergence: a=%+v b=%+v", sa, sb)
	}
}
