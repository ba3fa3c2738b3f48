package stats

import (
	"strings"
	"testing"

	"ivm/internal/memsys"
)

func TestCollectorSingleStream(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1})
	c := Attach(sys)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(400)

	if c.TotalGrants() != 400 {
		t.Fatalf("grants = %d", c.TotalGrants())
	}
	if c.TotalDelays() != 0 {
		t.Fatalf("delays = %d", c.TotalDelays())
	}
	// d=1 over 4 banks: each bank gets 100 grants, busy 2 of every 4
	// clocks: utilisation 0.5.
	for bank := 0; bank < 4; bank++ {
		if g := c.BankGrants[bank]; g != 100 {
			t.Fatalf("bank %d grants = %d", bank, g)
		}
		u := c.Utilization(bank)
		if u < 0.49 || u > 0.51 {
			t.Fatalf("bank %d utilisation = %v", bank, u)
		}
	}
	if bw := c.Bandwidth(); bw < 0.99 || bw > 1.01 {
		t.Fatalf("bandwidth = %v", bw)
	}
}

func TestCollectorHistogram(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 8, BankBusy: 2, CPUs: 2})
	c := Attach(sys)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(4, 1))
	sys.Run(100)
	h := c.GrantHistogram()
	// Disjoint phases, both full speed: every finished clock has 2
	// grants.
	if len(h) < 3 {
		t.Fatalf("histogram = %v", h)
	}
	if h[2] < 95 {
		t.Fatalf("histogram = %v, expected ~99 clocks with 2 grants", h)
	}
	if h[0] != 0 || h[1] != 0 {
		t.Fatalf("histogram = %v, expected no 0/1-grant clocks", h)
	}
}

func TestCollectorConflictKinds(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 8, BankBusy: 4, CPUs: 2})
	c := Attach(sys)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 0)) // hammers bank 0
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 0)) // same bank, other CPU
	sys.Run(64)
	if c.KindCounts[memsys.SimultaneousConflict] == 0 {
		t.Error("expected simultaneous conflicts")
	}
	if c.KindCounts[memsys.BankConflict] == 0 {
		t.Error("expected bank conflicts")
	}
	if c.BankDelays[0] == 0 {
		t.Error("delays must be attributed to bank 0")
	}
	if c.HottestBank() != 0 {
		t.Errorf("hottest bank = %d", c.HottestBank())
	}
}

func TestCollectorSilentClocks(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 4, CPUs: 1})
	c := Attach(sys)
	// Self-conflicting stream: d=0, one grant every 4 clocks; the three
	// waiting clocks produce bank-conflict events, so all clocks carry
	// events — bandwidth ~1/4.
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 0))
	sys.Run(400)
	if bw := c.Bandwidth(); bw < 0.24 || bw > 0.26 {
		t.Fatalf("bandwidth = %v, want ~0.25", bw)
	}
	h := c.GrantHistogram()
	if h[0] == 0 {
		t.Fatal("expected zero-grant clocks")
	}
}

func TestUtilizationClamped(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 2, BankBusy: 8, CPUs: 1})
	c := Attach(sys)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(10)
	for bank := 0; bank < 2; bank++ {
		if u := c.Utilization(bank); u > 1 {
			t.Fatalf("utilisation %v > 1", u)
		}
	}
}

func TestReportRenders(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1})
	c := Attach(sys)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(40)
	r := c.Report()
	for _, want := range []string{"bank", "utilisation", "bandwidth estimate", "delays:"} {
		if !strings.Contains(r, want) {
			t.Fatalf("report missing %q:\n%s", want, r)
		}
	}
}

func TestEmptyCollector(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1})
	c := Attach(sys)
	if c.ObservedClocks() != 0 || c.Bandwidth() != 0 || c.Utilization(0) != 0 {
		t.Fatal("empty collector must report zeros")
	}
}

// Eq. 29's microstructure, observed: in the Fig. 3 barrier (d1=1,
// d2=6, f=1) the delayed stream's delay streaks all have length
// (d2-d1)/f = 5 in the steady state; in Fig. 5 (d1=1, d2=3) length 2.
func TestDelayRunLengthsMatchEq29(t *testing.T) {
	check := func(m, nc, b2, d2 int, wantRun int64) {
		t.Helper()
		sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
		c := Attach(sys)
		sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
		sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
		sys.Run(int64(40 * m * nc))
		runs := c.DelayRunLengths(1)
		if len(runs) == 0 {
			t.Fatalf("d2=%d: no delay runs", d2)
		}
		// All steady-state runs have the characteristic length; allow a
		// single deviating run from the startup transient.
		other := int64(0)
		for length, count := range runs {
			if length != wantRun {
				other += count
			}
		}
		if other > 1 {
			t.Fatalf("d2=%d: runs %v, want nearly all of length %d", d2, runs, wantRun)
		}
	}
	check(13, 6, 0, 6, 5) // Fig. 3
	check(13, 4, 7, 3, 2) // Fig. 5
}

func TestDelayRunLengthsEmptyForFreePair(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 12, BankBusy: 3, CPUs: 2})
	c := Attach(sys)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(3, 7))
	sys.Run(400)
	if runs := c.DelayRunLengths(1); len(runs) != 0 {
		t.Fatalf("conflict-free pair has delay runs: %v", runs)
	}
}
