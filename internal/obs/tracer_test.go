package obs

import (
	"testing"

	"ivm/internal/memsys"
)

// fig3 builds the paper's Fig. 3 barrier (m=13, nc=6, d1=1, d2=6):
// stream 2 is delayed by bank conflicts in the steady state, so the
// tracer sees both grants and classified delays.
func fig3() *memsys.System {
	sys := memsys.New(memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 6))
	return sys
}

func TestTracerCountsMatchPortCounters(t *testing.T) {
	sys := fig3()
	tr := Attach(sys, TracerOptions{})
	sys.Run(200)

	var wantGrants, wantBank, wantSim, wantSec int64
	for _, p := range sys.Ports() {
		wantGrants += p.Count.Grants
		wantBank += p.Count.Bank
		wantSim += p.Count.Simultaneous
		wantSec += p.Count.Section
	}
	if tr.Grants() != wantGrants {
		t.Errorf("grants %d, ports say %d", tr.Grants(), wantGrants)
	}
	if tr.Delays() != wantBank+wantSim+wantSec {
		t.Errorf("delays %d, ports say %d", tr.Delays(), wantBank+wantSim+wantSec)
	}
	if got := tr.KindCount(memsys.BankConflict); got != wantBank {
		t.Errorf("bank conflicts %d, want %d", got, wantBank)
	}
	if got := tr.KindCount(memsys.SimultaneousConflict); got != wantSim {
		t.Errorf("simultaneous %d, want %d", got, wantSim)
	}
	s := tr.Stats()
	if s.Grants != wantGrants || s.BankConflicts != wantBank {
		t.Errorf("stats snapshot %+v disagrees with counters", s)
	}
	if s.Recorded != int64(len(tr.Events()))+s.Dropped {
		t.Errorf("recorded %d != ring %d + dropped %d", s.Recorded, len(tr.Events()), s.Dropped)
	}
	if s.Bandwidth <= 0 || s.Bandwidth > 2 {
		t.Errorf("bandwidth estimate %v out of range", s.Bandwidth)
	}
}

func TestTracerEventsAreValueCopies(t *testing.T) {
	sys := fig3()
	tr := Attach(sys, TracerOptions{Capacity: 64})
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
	sys := fig3()
	tr := Attach(sys, TracerOptions{Capacity: 16})
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
	sys := fig3()
	a := NewTracer(TracerOptions{})
	b := NewTracer(TracerOptions{})
	sys.SetListener(Tee{a, nil, b})
	sys.Run(50)
	if a.Grants() == 0 || a.Grants() != b.Grants() || a.Delays() != b.Delays() {
		t.Errorf("tee divergence: a=%d/%d b=%d/%d", a.Grants(), a.Delays(), b.Grants(), b.Delays())
	}
}
