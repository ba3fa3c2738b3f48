package memsys

import "testing"

// Window = 1 reproduces the paper's in-order port exactly.
func TestWindowOneEqualsInOrder(t *testing.T) {
	run := func(window int) (int64, int64) {
		sys := New(Config{Banks: 16, BankBusy: 4, CPUs: 2})
		src := NewWindowedStrided(0, 8, 64)
		sys.AddWindowedPort(0, "1", src, window)
		clocks, done := sys.RunUntilDone(10_000)
		if !done {
			t.Fatal("did not finish")
		}
		return clocks, sys.ports[0].Count.Grants
	}
	c1, g1 := run(1)

	sys := New(Config{Banks: 16, BankBusy: 4, CPUs: 2})
	sys.AddPort(0, "1", &StridedSource{Addr: 0, Stride: 8, Remaining: 64})
	c2, done := sys.RunUntilDone(10_000)
	if !done {
		t.Fatal("plain run did not finish")
	}
	if c1 != c2 || g1 != 64 {
		t.Fatalf("window=1 (%d clocks) differs from in-order (%d)", c1, c2)
	}
}

// A gather with a hot bank: in order, every repeat of the hot bank
// stalls the whole stream; with a reorder window the other elements
// flow past it.
func TestWindowBypassesHotBank(t *testing.T) {
	// Indices alternating a hot bank (0) with unique banks: 0, 1, 0, 2,
	// 0, 3, ... — the hot bank sustains 1 grant per nc=4 clocks, so
	// in-order time ~ 2x elements; a window of 4 overlaps the cold
	// accesses with the hot-bank waits.
	var addrs []int64
	for i := 1; i <= 48; i++ {
		addrs = append(addrs, 0, int64(i%15)+1)
	}
	run := func(window int) int64 {
		sys := New(Config{Banks: 16, BankBusy: 4, CPUs: 1})
		sys.AddWindowedPort(0, "1", NewWindowedSequence(addrs), window)
		clocks, done := sys.RunUntilDone(100_000)
		if !done {
			t.Fatal("did not finish")
		}
		return clocks
	}
	inOrder := run(1)
	windowed := run(4)
	if windowed >= inOrder {
		t.Fatalf("window 4 (%d clocks) not faster than in-order (%d)", windowed, inOrder)
	}
	// The hot bank itself is the capacity limit: 96 hot accesses * 4
	// clocks... half the elements hit bank 0 (96 of 192): lower bound
	// 96*4 = 384? No: 96 accesses to bank 0 at 1 per 4 clocks = 381+.
	// The windowed run should approach it.
	hot := int64(len(addrs) / 2 * 4)
	if windowed > hot+hot/4 {
		t.Fatalf("windowed run %d far from the hot-bank bound %d", windowed, hot)
	}
}

// Out-of-order ports dissolve barrier-situations: Fig. 3's delayed
// stream recovers bandwidth with a lookahead window (the barrier is an
// artifact of the in-order port rule).
func TestWindowDissolvesBarrier(t *testing.T) {
	run := func(window int) int64 {
		sys := New(Config{Banks: 13, BankBusy: 6, CPUs: 2})
		// Stream 1 is effectively endless: it sustains the barrier for
		// the whole measurement.
		sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
		src := NewWindowedStrided(0, 6, 390)
		sys.AddWindowedPort(1, "2", src, window)
		for !src.Done() {
			if sys.Clock() > 100_000 {
				t.Fatal("stream 2 never finished")
			}
			sys.Step()
		}
		return sys.Clock()
	}
	inOrder := run(1)
	windowed := run(6)
	// In order: stream 2 runs at 1/6 (Fig. 3's barrier): ~390*6 clocks.
	if inOrder < 5*390 {
		t.Fatalf("in-order run %d clocks; expected the barrier to throttle it", inOrder)
	}
	// Windowed: dramatically faster.
	if windowed*2 > inOrder {
		t.Fatalf("window 6 (%d) should at least halve the barrier time (%d)", windowed, inOrder)
	}
}

func TestWindowedSourcesRejectBadGrant(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GrantIdx out of window did not panic")
		}
	}()
	s := NewWindowedStrided(0, 1, 4)
	s.PendingWindow(0, 2)
	s.GrantIdx(0, 5)
}

func TestWindowedPortValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window 0 did not panic")
		}
	}()
	sys := New(Config{Banks: 4, BankBusy: 1})
	sys.AddWindowedPort(0, "1", NewWindowedStrided(0, 1, 4), 0)
}

func TestFindCycleRejectsWindowedSources(t *testing.T) {
	sys := New(Config{Banks: 4, BankBusy: 2})
	sys.AddWindowedPort(0, "1", &WindowedStrided{Addr: 0, Stride: 1, Remaining: -1}, 2)
	if _, err := sys.FindCycle(1000); err == nil {
		t.Fatal("FindCycle accepted a windowed source")
	}
}

func TestWindowedSequenceConservation(t *testing.T) {
	addrs := []int64{3, 3, 3, 7, 1, 5, 3, 2}
	sys := New(Config{Banks: 8, BankBusy: 3, CPUs: 1})
	p := sys.AddWindowedPort(0, "1", NewWindowedSequence(addrs), 3)
	_, done := sys.RunUntilDone(1000)
	if !done {
		t.Fatal("did not finish")
	}
	if p.Count.Grants != int64(len(addrs)) {
		t.Fatalf("granted %d of %d", p.Count.Grants, len(addrs))
	}
}
