package memsys

import "testing"

// FuzzSimulatorInvariants drives randomly configured systems and checks
// the structural invariants via the same listener the sweep tests use:
// no bank granted while busy, one grant per bank/path/port per clock,
// events carry consistent clocks.
func FuzzSimulatorInvariants(f *testing.F) {
	f.Add(uint8(16), uint8(4), uint8(4), uint8(1), uint8(6), uint8(3), false, false)
	f.Add(uint8(12), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), true, false)
	f.Add(uint8(13), uint8(6), uint8(1), uint8(1), uint8(6), uint8(0), false, true)
	f.Add(uint8(8), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), true, true)

	f.Fuzz(func(t *testing.T, mRaw, ncRaw, sRaw, d1Raw, d2Raw, b2Raw uint8, cyclic, consecutive bool) {
		m := int(mRaw%24) + 1
		nc := int(ncRaw%6) + 1
		// Pick a section count dividing m.
		s := int(sRaw%uint8(m)) + 1
		for m%s != 0 {
			s--
		}
		cfg := Config{Banks: m, Sections: s, BankBusy: nc, CPUs: 2}
		if cyclic {
			cfg.Priority = CyclicPriority
		}
		if consecutive {
			cfg.Mapping = ConsecutiveSections
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("constructed invalid config: %v", err)
		}
		sys := New(cfg)
		inv := newInvariantChecker(t, sys)
		sys.SetListener(inv)
		sys.AddPort(0, "1", NewInfiniteStrided(0, int64(int(d1Raw)%m)))
		sys.AddPort(1, "2", NewInfiniteStrided(int64(int(b2Raw)%m), int64(int(d2Raw)%m)))
		sys.AddPort(0, "3", &StridedSource{Addr: 2, Stride: 1, Remaining: 40})
		for i := 0; i < 300; i++ {
			inv.beginClock(sys.Clock())
			sys.Step()
		}
		// Conservation: the finite stream transferred at most 40.
		if g := sys.ports[2].Count.Grants; g > 40 {
			t.Fatalf("finite stream granted %d > 40", g)
		}
	})
}

// FuzzFindCycle checks that cycle detection always terminates with a
// consistent cycle on two infinite streams, one the key-free oracle
// accepts.
func FuzzFindCycle(f *testing.F) {
	f.Add(uint8(13), uint8(6), uint8(1), uint8(6), uint8(0))
	f.Add(uint8(16), uint8(4), uint8(1), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, mRaw, ncRaw, d1Raw, d2Raw, b2Raw uint8) {
		m := int(mRaw%20) + 1
		nc := int(ncRaw%5) + 1
		build := func() *System {
			sys := New(Config{Banks: m, BankBusy: nc, CPUs: 2})
			sys.AddPort(0, "1", NewInfiniteStrided(0, int64(int(d1Raw)%m)))
			sys.AddPort(1, "2", NewInfiniteStrided(int64(int(b2Raw)%m), int64(int(d2Raw)%m)))
			return sys
		}
		c, err := build().FindCycle(1 << 22)
		if err != nil {
			t.Fatalf("no cycle: %v", err)
		}
		if c.Length <= 0 || c.TotalGrants() < 0 || c.TotalGrants() > 2*c.Length {
			t.Fatalf("inconsistent cycle %+v", c)
		}
		checkCycleByRun(t, build(), c)
	})
}
