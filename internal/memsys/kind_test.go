package memsys

import "testing"

func cyclePair(t *testing.T, cfg Config, b1, d1, b2, d2 int) Cycle {
	t.Helper()
	sys := New(cfg)
	sys.AddPort(0, "1", NewInfiniteStrided(int64(b1), int64(d1)))
	cpu2 := 0
	if cfg.cpus() > 1 {
		cpu2 = 1
	}
	sys.AddPort(cpu2, "2", NewInfiniteStrided(int64(b2), int64(d2)))
	c, err := sys.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCycleKindsMatchPaperFigures(t *testing.T) {
	twoCPU := func(m, nc int) Config { return Config{Banks: m, BankBusy: nc, CPUs: 2} }

	// Fig. 2: conflict-free.
	if k := cyclePair(t, twoCPU(12, 3), 0, 1, 3, 7).Kind(); k != FreeCycle {
		t.Errorf("Fig. 2 kind = %s", k)
	}
	// Fig. 3: barrier delaying stream 2.
	c := cyclePair(t, twoCPU(13, 6), 0, 1, 0, 6)
	if c.Kind() != BarrierCycle || delayedPort(c) != 1 {
		t.Errorf("Fig. 3 kind = %s, delayed = %d", c.Kind(), delayedPort(c))
	}
	// Fig. 4: double conflict.
	if k := cyclePair(t, twoCPU(13, 6), 0, 1, 1, 6).Kind(); k != DoubleCycle {
		t.Errorf("Fig. 4 kind = %s", k)
	}
	// Fig. 6: inverted barrier delaying stream 1.
	c = cyclePair(t, twoCPU(13, 4), 0, 1, 1, 3)
	if c.Kind() != BarrierCycle || delayedPort(c) != 0 {
		t.Errorf("Fig. 6 kind = %s, delayed = %d", c.Kind(), delayedPort(c))
	}
	// Fig. 8a: linked conflict (one CPU, three sections).
	linked := Config{Banks: 12, Sections: 3, BankBusy: 3, CPUs: 1}
	if k := cyclePair(t, linked, 0, 1, 1, 1).Kind(); k != LinkedCycle {
		t.Errorf("Fig. 8a kind = %s", k)
	}
	// Fig. 8b: cyclic priority resolves it.
	resolved := linked
	resolved.Priority = CyclicPriority
	if k := cyclePair(t, resolved, 0, 1, 1, 1).Kind(); k != FreeCycle {
		t.Errorf("Fig. 8b kind = %s", k)
	}
}

// delayedPort returns the index of the single delayed port of a
// barrier cycle, or -1 if the cycle is not a barrier.
func delayedPort(c Cycle) int {
	if c.Kind() != BarrierCycle {
		return -1
	}
	for i, cc := range c.Conflicts {
		if cc.Delays() > 0 {
			return i
		}
	}
	return -1
}

func TestCycleKindString(t *testing.T) {
	for k, want := range map[CycleKind]string{
		FreeCycle: "conflict-free", BarrierCycle: "barrier",
		DoubleCycle: "double-conflict", LinkedCycle: "linked-conflict", MixedCycle: "mixed",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}
