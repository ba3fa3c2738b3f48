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
// their two ports and two sources, and a Cycle from FindCycle its one
// slice. AddStreams re-arms the ports it built for the previous
// placement, so only the Cycle's slice remains, and FindCycleInto
// refills one kept Cycle, so the census's route allocates nothing.
func TestFindCyclePackedReusedAllocs(t *testing.T) {
	addStreams := func(sys *System, d1, b2, d2 int) {
		sys.AddStreams(StreamSpec{Distance: d1, CPU: 0}, StreamSpec{Start: b2, Distance: d2, CPU: 1})
	}
	for _, route := range []struct {
		name   string
		want   float64
		attach func(sys *System, d1, b2, d2 int)
		into   bool // search with FindCycleInto into one kept Cycle
	}{
		{"AddPort", 5, attachPlacement, false},
		{"AddStreams", 1, addStreams, false},
		{"AddStreams+FindCycleInto", 0, addStreams, true},
	} {
		for _, p := range searchPlacements {
			sys := newPackedSystem(p.m, p.nc)
			var c Cycle
			var err error
			allocs := testing.AllocsPerRun(50, func() {
				sys.Reset()
				route.attach(sys, p.d1, p.b2, p.d2)
				if route.into {
					err = sys.FindCycleInto(&c, 1<<20)
				} else {
					c, err = sys.FindCycle(1 << 20)
				}
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

// TestFindCyclePackedLongSearch runs one search past keptStates: a
// unit-stride stream on 5000 banks visits all 5000 states before its
// first recurrence. Its cycle must equal the scalar oracle's. The next
// search on the same system releases the table it grew, and the one
// after that is back at the reused AddStreams pin.
func TestFindCyclePackedLongSearch(t *testing.T) {
	const m = 5000
	cfg := Config{Banks: m, BankBusy: 1, CPUs: 2}
	long := StreamSpec{Distance: 1}
	scalar := New(cfg)
	scalar.AddStreams(long)
	want, err := scalar.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(cfg)
	sys.SetKernel(KernelPacked)
	sys.AddStreams(long)
	got, err := sys.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("long search gives\n%+v\nthe oracle\n%+v", got, want)
	}
	if n := len(sys.states.hashes); n <= keptStates {
		t.Fatalf("long search recorded %d states, want more than %d", n, keptStates)
	}

	// Streams at distances m/4 and m/2 cycle over four banks and two,
	// so this search recurs within a few clocks.
	short := func() {
		sys.Reset()
		sys.AddStreams(StreamSpec{Distance: m / 4, CPU: 0}, StreamSpec{Start: 1, Distance: m / 2, CPU: 1})
		if _, err = sys.FindCycle(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	short()
	if n := cap(sys.states.hashes); n > keptStates {
		t.Fatalf("search after the long one kept room for %d states, want the table released", n)
	}
	if allocs := testing.AllocsPerRun(20, short); allocs != 1 {
		t.Errorf("reused short search made %v allocations, want 1", allocs)
	}
}

// TestRecurrenceTableProbe files distinct keys, some of them prefixes
// of others, under one forced hash whose home is the second-last slot,
// so the probe run wraps past the end of the slot array to index 0,
// and keeps filing past the initial 64 states, so the table doubles and
// re-files from its stored hashes. Every key must find its own state;
// an absent key whose hash is present, or whose hash is not, must find
// none and name an empty slot.
func TestRecurrenceTableProbe(t *testing.T) {
	var tab recurrenceTable
	tab.begin(2, true)
	initial := len(tab.slots)
	// The home slot is the second-last before the table grows and
	// after it doubles once.
	h := uint64(0x9e3779b97f4a7c00) | uint64(2*initial-2)
	keys := [][]uint64{{}, {1}, {1, 0}, {0, 1}, {1, 0, 0}}
	for i := uint64(0); len(keys) < 80; i++ {
		keys = append(keys, []uint64{2, i, i << 32})
	}
	add := func(h uint64, key []uint64) int {
		state, slot := tab.lookup(h, key)
		if state != -1 || tab.slots[slot] != 0 {
			t.Fatalf("lookup(%v) before its insert = state %d, slot %d holding %d; want -1 and an empty slot", key, state, slot, tab.slots[slot])
		}
		tab.arena = append(tab.arena, key...)
		tab.insert(h, slot)
		return slot
	}
	for i, k := range keys {
		slot := add(h, k)
		if i == 2 && slot != 0 {
			t.Fatalf("third key under a hash homed at slot %d went to slot %d, want the wrap to 0", len(tab.slots)-2, slot)
		}
	}
	other := []uint64{7}
	add(h+1, other)
	if len(tab.slots) <= initial {
		t.Fatalf("%d states left the slot array at %d slots, want it grown", len(keys)+1, len(tab.slots))
	}
	for i, k := range keys {
		if got, _ := tab.lookup(h, k); got != int32(i) {
			t.Errorf("lookup(%v) = %d, want %d", k, got, i)
		}
	}
	if got, _ := tab.lookup(h+1, other); got != int32(len(keys)) {
		t.Errorf("lookup of the other hash's key = %d, want %d", got, len(keys))
	}
	for _, absent := range []struct {
		h   uint64
		key []uint64
	}{{h, []uint64{0}}, {h, other}, {h, []uint64{1, 0, 0, 0}}, {h + 2, []uint64{9}}} {
		if got, slot := tab.lookup(absent.h, absent.key); got != -1 || tab.slots[slot] != 0 {
			t.Errorf("lookup(%#x, %v) = state %d, slot %d holding %d; want -1 and an empty slot", absent.h, absent.key, got, slot, tab.slots[slot])
		}
	}
}

// quadPlacement is a 4-stream placement on the (m = 16, n_c = 4) memory
// that batch workloads draw from, its streams alternating between CPUs 0
// and 1. Its packed search runs 83 clocks over the longest key shape
// the benchmarks send: rr, four pending banks and about five busy banks.
var quadPlacement = []StreamSpec{
	{Start: 0, Distance: 1, CPU: 0},
	{Start: 5, Distance: 3, CPU: 1},
	{Start: 9, Distance: 5, CPU: 0},
	{Start: 2, Distance: 7, CPU: 1},
}

// BenchmarkFindCyclePacked times the packed search over the three
// searchPlacements and quadPlacement per op. fresh builds a new System
// per search, as a cold oracle or a single served miss does; reused
// resets one System per placement and searches it again. A repeated
// placement on a reused system is a warm-table hit: its first state is
// one the previous op recorded, so reused times the hit path, not the
// walk. BenchmarkFindCycleItem times the walk on a reused system.
func BenchmarkFindCyclePacked(b *testing.B) {
	search := func(sys *System) {
		if _, err := sys.FindCycle(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range searchPlacements {
				sys := newPackedSystem(p.m, p.nc)
				attachPlacement(sys, p.d1, p.b2, p.d2)
				search(sys)
			}
			sys := newPackedSystem(16, 4)
			sys.AddStreams(quadPlacement...)
			search(sys)
		}
	})
	b.Run("reused", func(b *testing.B) {
		systems := make([]*System, len(searchPlacements))
		for i, p := range searchPlacements {
			systems[i] = newPackedSystem(p.m, p.nc)
		}
		quad := newPackedSystem(16, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range searchPlacements {
				sys := systems[j]
				sys.Reset()
				attachPlacement(sys, p.d1, p.b2, p.d2)
				search(sys)
			}
			quad.Reset()
			quad.AddStreams(quadPlacement...)
			search(quad)
		}
	})
}

// BenchmarkFindCycleItem times the packed searches of two census work
// items per op: every placement of a (13, 4) triple row and of an
// (8, 2, 4) 4-stream row (tripleRow and stream4Row). shared searches
// an item's placements on one System, as a sweep worker does, so each
// search stops at the first state an earlier one recorded; fresh builds
// a System per placement, as the cold oracle does. states/search is
// the states a search steps and records.
func BenchmarkFindCycleItem(b *testing.B) {
	rows := []censusRow{tripleRow, stream4Row}
	items := make([][][]StreamSpec, len(rows))
	for i, r := range rows {
		items[i] = r.placements()
	}
	for _, shared := range []bool{true, false} {
		name := "fresh"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			var states, searches int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, r := range rows {
					var sys *System
					for _, p := range items[j] {
						if sys == nil || !shared {
							sys = New(r.cfg)
							sys.SetKernel(KernelPacked)
						}
						_, clocks, err := reusedSearch(sys, p, 1<<20)
						if err != nil {
							b.Fatal(err)
						}
						states += clocks
						searches++
					}
				}
			}
			b.ReportMetric(float64(states)/float64(searches), "states/search")
		})
	}
}
