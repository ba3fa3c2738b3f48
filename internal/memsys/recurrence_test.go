package memsys

import (
	"reflect"
	"testing"
)

// searchPlacements are two-stream placements whose packed searches run
// 84, 99 and 172 clocks (Lead + Length), so the recurrence table grows
// past its initial capacity on the longer ones.
var searchPlacements = []struct {
	m, nc, d1, b2, d2 int
	clocks            int64
}{
	{13, 6, 1, 0, 6, 84},
	{16, 4, 1, 3, 7, 99},
	{32, 8, 3, 5, 7, 172},
}

func attachPlacement(sys *System, d1, b2, d2 int) {
	sys.AddPort(0, "1", NewInfiniteStrided(0, int64(d1)))
	sys.AddPort(1, "2", NewInfiniteStrided(int64(b2), int64(d2)))
}

func newPackedSystem(m, nc int) *System {
	sys := New(Config{Banks: m, BankBusy: nc, CPUs: 2})
	sys.SetKernel(KernelPacked)
	return sys
}

// TestFindCyclePackedReusedAllocs pins the reused packed search to a
// constant allocation count, independent of how many clocks it runs.
// Every visited state goes into the system's recurrence table, whose
// storage a reused system keeps, so a per-clock allocation would make
// the longer searches allocate more. Ports attached with AddPort cost
// their two ports and two sources, and the Cycle its two slices; the
// census attaches with AddStreams, which re-arms the ports it built
// for the previous placement, so only the Cycle's slices remain.
func TestFindCyclePackedReusedAllocs(t *testing.T) {
	for _, route := range []struct {
		name   string
		want   float64
		attach func(sys *System, d1, b2, d2 int)
	}{
		{"AddPort", 6, attachPlacement},
		{"AddStreams", 2, func(sys *System, d1, b2, d2 int) {
			sys.AddStreams(StreamSpec{Distance: d1, CPU: 0}, StreamSpec{Start: b2, Distance: d2, CPU: 1})
		}},
	} {
		for _, p := range searchPlacements {
			sys := newPackedSystem(p.m, p.nc)
			var c Cycle
			var err error
			allocs := testing.AllocsPerRun(50, func() {
				sys.Reset()
				route.attach(sys, p.d1, p.b2, p.d2)
				c, err = sys.FindCycle(1 << 20)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Lead + c.Length; got != p.clocks {
				t.Fatalf("%s %+v: search ran %d clocks, want %d", route.name, p, got, p.clocks)
			}
			if allocs != route.want {
				t.Errorf("%s %+v: reused search over %d clocks made %v allocations, want %v", route.name, p, p.clocks, allocs, route.want)
			}
		}
	}
}

// TestFindCyclePackedCounterWrap starts the ports' counters just below
// 2^32, so they cross it inside the search. The table keeps counters
// modulo 2^32; the cycle's deltas must still equal the scalar oracle's
// on zeroed counters.
func TestFindCyclePackedCounterWrap(t *testing.T) {
	const near = 1<<32 - 3
	for _, p := range searchPlacements {
		packed := newPackedSystem(p.m, p.nc)
		attachPlacement(packed, p.d1, p.b2, p.d2)
		for _, port := range packed.Ports() {
			port.Count = Counters{Grants: near, Bank: near, Simultaneous: near, Section: near, Idle: near}
		}
		scalar := New(packed.Config())
		attachPlacement(scalar, p.d1, p.b2, p.d2)
		got, err := packed.FindCycle(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scalar.FindCycle(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: counters crossing 2^32 give\n%+v\nthe oracle\n%+v", p, got, want)
		}
	}
}

// TestRecurrenceTableCollisionChain files distinct keys under one hash
// value. A lookup must walk the chain and compare the full key, so each
// key finds its own state, and a key whose hash is present but which
// was never inserted is absent.
func TestRecurrenceTableCollisionChain(t *testing.T) {
	var tab recurrenceTable
	tab.reset(2)
	const h = 0x9e3779b97f4a7c15
	keys := []string{"\x00\x02\x04", "\x00\x02\x06", "\x02", "\x00\x02\x04\x01"}
	add := func(h uint64, key string) {
		state, head := tab.lookup(h, []byte(key))
		if state != -1 {
			t.Fatalf("lookup(%q) before its insert = %d, want -1", key, state)
		}
		tab.arena = append(tab.arena, key...)
		tab.insert(h, head)
	}
	for _, k := range keys {
		add(h, k)
	}
	add(h+1, "\x07")
	for i, k := range keys {
		if got, _ := tab.lookup(h, []byte(k)); got != int32(i) {
			t.Errorf("lookup(%q) = %d, want %d", k, got, i)
		}
	}
	if got, _ := tab.lookup(h+1, []byte("\x07")); got != int32(len(keys)) {
		t.Errorf("lookup of the other hash's key = %d, want %d", got, len(keys))
	}
	for _, absent := range []string{"\x00\x02", "\x07", ""} {
		got, head := tab.lookup(h, []byte(absent))
		if got != -1 || head != int32(len(keys)-1) {
			t.Errorf("lookup(%q) under a shared hash = %d (head %d), want -1 (head %d)", absent, got, head, len(keys)-1)
		}
	}
	if got, head := tab.lookup(h+2, []byte(keys[0])); got != -1 || head != -1 {
		t.Errorf("lookup under an absent hash = %d (head %d), want -1 (head -1)", got, head)
	}
}

// BenchmarkFindCyclePacked times the packed search over the three
// searchPlacements per op. fresh builds a new System per search, as a
// cold oracle or a single served miss does; reused resets one System
// per placement, as a sweep worker does.
func BenchmarkFindCyclePacked(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range searchPlacements {
				sys := newPackedSystem(p.m, p.nc)
				attachPlacement(sys, p.d1, p.b2, p.d2)
				if _, err := sys.FindCycle(1 << 20); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		systems := make([]*System, len(searchPlacements))
		for i, p := range searchPlacements {
			systems[i] = newPackedSystem(p.m, p.nc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range searchPlacements {
				sys := systems[j]
				sys.Reset()
				attachPlacement(sys, p.d1, p.b2, p.d2)
				if _, err := sys.FindCycle(1 << 20); err != nil {
					b.Fatalf("%+v: %v", p, err)
				}
			}
		}
	})
}
