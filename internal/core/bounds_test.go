package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/rat"
	"ivm/internal/stream"
)

func TestSaturationBound(t *testing.T) {
	// The X-MP case the paper cites: 6 ports, 16 banks, nc=4.
	if got := SaturationBound(16, 4, 6); !got.Equal(rat.New(4, 1)) {
		t.Errorf("SaturationBound(16,4,6) = %s, want 4", got)
	}
	if got := SaturationBound(16, 4, 3); !got.Equal(rat.New(3, 1)) {
		t.Errorf("SaturationBound(16,4,3) = %s, want 3 (port-limited)", got)
	}
	if !PortsSaturate(16, 4, 6) {
		t.Error("6*4 > 16: saturation expected")
	}
	if PortsSaturate(16, 4, 4) {
		t.Error("4*4 = 16: not saturated")
	}
}

// The paper's Section IV argument, simulated: six unit-stride streams
// on the 16-bank n_c=4 memory cannot exceed 4 grants/clock — and the
// bound is tight (the cyclic state attains exactly 4).
func TestSixPortSaturationTight(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 16, BankBusy: 4, CPUs: 2})
	var sets []StreamSet
	for i := 0; i < 6; i++ {
		cpu := i / 3
		sys.AddPort(cpu, string(rune('1'+i)), memsys.NewInfiniteStrided(int64(i), 1))
		sets = append(sets, StreamSet{Stream: stream.Infinite(16, i, 1), CPU: cpu})
	}
	c, err := sys.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	got := c.EffectiveBandwidth()
	bound := capacityAt(16, 0, 4, sets)
	if got.Cmp(bound) > 0 {
		t.Fatalf("b_eff %s exceeds bound %s", got, bound)
	}
	if !got.Equal(rat.New(4, 1)) {
		t.Fatalf("b_eff = %s, want the tight bound 4", got)
	}
}

// Property: simulated aggregate bandwidth never exceeds the capacity
// bound, over randomised configurations.
func TestMultiStreamBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(19851001))
	for trial := 0; trial < 120; trial++ {
		ms := []int{8, 12, 16}[rng.Intn(3)]
		ncs := []int{2, 3, 4}[rng.Intn(3)]
		var s int
		for _, cand := range []int{0, 2, 4} {
			if cand == 0 || ms%cand == 0 {
				s = cand
			}
		}
		if rng.Intn(2) == 0 {
			s = 0
		}
		cpus := 1 + rng.Intn(2)
		p := 1 + rng.Intn(5)

		cfg := memsys.Config{Banks: ms, Sections: s, BankBusy: ncs, CPUs: cpus}
		sys := memsys.New(cfg)
		var sets []StreamSet
		for i := 0; i < p; i++ {
			st := stream.Infinite(ms, rng.Intn(ms), rng.Intn(ms))
			cpu := rng.Intn(cpus)
			sys.AddPort(cpu, string(rune('1'+i)), memsys.NewInfiniteStrided(int64(st.Start), int64(st.Distance)))
			sets = append(sets, StreamSet{Stream: st, CPU: cpu})
		}
		c, err := sys.FindCycle(1 << 21)
		if err != nil {
			t.Fatal(err)
		}
		got := c.EffectiveBandwidth()
		bound := capacityAt(ms, s, ncs, sets)
		if got.Cmp(bound) > 0 {
			t.Fatalf("trial %d (m=%d s=%d nc=%d p=%d): b_eff %s exceeds bound %s",
				trial, ms, s, ncs, p, got, bound)
		}
	}
}

// The pair bounds sandwich the simulator from every relative start,
// and are tight at both ends on degenerate pairs.
func TestPairBandwidthBoundsSandwichSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(19850712))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(12)
		nc := 1 + rng.Intn(4)
		d1 := rng.Intn(m)
		d2 := rng.Intn(m)
		b2 := rng.Intn(m)
		lo, hi := PairBandwidthBounds(m, nc, d1, d2)
		sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
		sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, int64(d1)))
		sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
		c, err := sys.FindCycle(1 << 21)
		if err != nil {
			t.Fatal(err)
		}
		bw := c.EffectiveBandwidth()
		if bw.Cmp(lo) < 0 || bw.Cmp(hi) > 0 {
			t.Fatalf("m=%d nc=%d %d(+)%d b2=%d: b_eff %s outside [%s, %s]",
				m, nc, d1, d2, b2, bw, lo, hi)
		}
	}
	// Tight below: two d=0 streams on one bank share its 1/n_c capacity.
	lo, _ := PairBandwidthBounds(16, 4, 0, 0)
	sys := memsys.New(memsys.Config{Banks: 16, BankBusy: 4, CPUs: 2})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 0))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 0))
	c, err := sys.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !c.EffectiveBandwidth().Equal(lo) {
		t.Fatalf("degenerate pair b_eff %s, lower bound %s should be tight", c.EffectiveBandwidth(), lo)
	}
	// Tight above: a conflict-free pair attains the port bound of 2.
	_, hi := PairBandwidthBounds(12, 3, 1, 7)
	if !hi.Equal(rat.New(2, 1)) {
		t.Fatalf("conflict-free pair upper bound %s, want 2", hi)
	}
}

// The path bound matters: two ports of one CPU into a single shared
// section can never exceed 1 grant/clock.
func TestPathBound(t *testing.T) {
	// m=8, s=2: streams with d=2 from even banks stay in section 0.
	sets := []StreamSet{
		{Stream: stream.Infinite(8, 0, 2), CPU: 0},
		{Stream: stream.Infinite(8, 2, 2), CPU: 0},
	}
	bound := capacityAt(8, 2, 2, sets)
	// Self bound = 2, bank bound = 4/2 = 2, path bound = min(2,2) = 2 —
	// the generic bounds don't see the shared section; but simulation
	// must still respect them.
	sys := memsys.New(memsys.Config{Banks: 8, Sections: 2, BankBusy: 2, CPUs: 1})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 2))
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(2, 2))
	c, err := sys.FindCycle(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	if c.EffectiveBandwidth().Cmp(bound) > 0 {
		t.Fatalf("b_eff %s exceeds bound %s", c.EffectiveBandwidth(), bound)
	}
	// One CPU, one usable section: the path bound with s=1 usable...
	// both streams only ever touch section 0, so the real ceiling is 1.
	if c.EffectiveBandwidth().Cmp(rat.One()) > 0 {
		t.Fatalf("two streams through one path exceed 1: %s", c.EffectiveBandwidth())
	}
}

// Self-conflict bound dominates for low-return-number strides.
func TestSelfConflictBoundDominates(t *testing.T) {
	sets := []StreamSet{
		{Stream: stream.Infinite(16, 0, 8), CPU: 0}, // r=2, nc=4: 1/2
		{Stream: stream.Infinite(16, 1, 8), CPU: 1}, // disjoint banks
	}
	bound := capacityAt(16, 0, 4, sets)
	if !bound.Equal(rat.One()) {
		t.Fatalf("bound = %s, want 1 (two half-speed streams)", bound)
	}
}

func TestMultiStreamBoundValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bank counts did not panic")
		}
	}()
	capacityAt(16, 0, 4, []StreamSet{{Stream: stream.Infinite(8, 0, 1)}})
}

// capacityAt is the capacity bound of sets at their own starts,
// built afresh.
func capacityAt(m, s, nc int, sets []StreamSet) rat.Rational {
	starts := make([]int, len(sets))
	for i, st := range sets {
		starts[i] = st.Stream.Start
	}
	c := NewCapacityBound(m, s, nc, sets)
	return c.At(starts)
}

// unionBound is the capacity-bound formula CapacityBound replaced,
// kept as its oracle: the union of the materialised access sets and a
// map tally of ports per CPU.
func unionBound(m, s, nc int, sets []StreamSet) rat.Rational {
	if s == 0 {
		s = m
	}
	best := rat.Zero()
	touched := make(map[int]bool)
	perCPU := make(map[int]int)
	for _, st := range sets {
		best = best.Add(SingleStreamBandwidth(m, nc, st.Stream.Distance))
		for _, b := range st.Stream.AccessSet() {
			touched[b] = true
		}
		perCPU[st.CPU]++
	}
	path := 0
	for _, q := range perCPU {
		path += min(q, s)
	}
	for _, b := range []rat.Rational{rat.New(int64(len(touched)), int64(nc)), rat.FromInt(int64(path))} {
		if b.Cmp(best) < 0 {
			best = b
		}
	}
	return best
}

// boundGrid is a family of placements to hold CapacityBound to the
// oracle on: streams with distances d on CPUs cpu, stream 1 at bank 0
// and every later stream swept over [0, m).
type boundGrid struct {
	name      string
	m, s, nc  int
	distances [][]int
	cpu       []int
}

// checkAgainstOracle compares a CapacityBound built per placement and
// one built once per distance tuple with
// unionBound on every placement of g and returns how many it compared.
func checkAgainstOracle(t *testing.T, g boundGrid) int {
	t.Helper()
	n := len(g.cpu)
	sets := make([]StreamSet, n)
	b := make([]int, n)
	count := 0
	for _, d := range g.distances {
		for j := range sets {
			sets[j] = StreamSet{Stream: stream.Infinite(g.m, 0, d[j]), CPU: g.cpu[j]}
		}
		capacity := NewCapacityBound(g.m, g.s, g.nc, sets)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				for j := range sets {
					sets[j] = StreamSet{Stream: stream.Infinite(g.m, b[j], d[j]), CPU: g.cpu[j]}
				}
				want := unionBound(g.m, g.s, g.nc, sets)
				if got := capacityAt(g.m, g.s, g.nc, sets); !got.Equal(want) {
					t.Fatalf("%s: d=%v b=%v: bound %s, oracle %s", g.name, d, b, got, want)
				}
				if got := capacity.At(b); !got.Equal(want) {
					t.Fatalf("%s: d=%v b=%v: per-spec bound %s, oracle %s", g.name, d, b, got, want)
				}
				count++
				return
			}
			for b[i] = 0; b[i] < g.m; b[i]++ {
				rec(i + 1)
			}
		}
		b[0] = 0
		rec(1)
	}
	return count
}

// The capacity bound built once per spec gives, on every placement of
// the census's specs, the value a per-placement build and the union
// oracle give: the pair grids, the section grids, the (13, 4) triple grid
// and the (8, 2, 4) 4-stream grid, every distance tuple included.
func TestCapacityBoundMatchesOnCensus(t *testing.T) {
	var grids []boundGrid
	for _, p := range [][2]int{{8, 2}, {12, 3}, {13, 4}, {16, 4}, {32, 2}} {
		grids = append(grids, boundGrid{name: fmt.Sprintf("pair grid (%d, %d)", p[0], p[1]), m: p[0], nc: p[1],
			distances: nondecreasing(distancesFrom(p[0], 1), 2), cpu: []int{0, 1}})
	}
	for _, p := range [][3]int{{12, 3, 3}, {16, 4, 4}} {
		grids = append(grids, boundGrid{name: fmt.Sprintf("section grid (%d, %d, %d)", p[0], p[1], p[2]), m: p[0], s: p[1], nc: p[2],
			distances: nondecreasing(distancesFrom(p[0], 1), 2), cpu: []int{0, 0}})
	}
	grids = append(grids,
		boundGrid{name: "triple grid (13, 4)", m: 13, nc: 4, distances: nondecreasing(distancesFrom(13, 1), 3), cpu: []int{0, 1, 2}},
		boundGrid{name: "4-stream grid (8, 2, 4)", m: 8, nc: 2, distances: nondecreasing(distancesFrom(8, 2), 4), cpu: []int{0, 1, 2, 3}},
	)
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			t.Logf("%d placements", checkAgainstOracle(t, g))
		})
	}
}

// nondecreasing lists the nondecreasing n-tuples over allowed.
func nondecreasing(allowed []int, n int) [][]int {
	var out [][]int
	tuple := make([]int, n)
	var rec func(i, lo int)
	rec = func(i, lo int) {
		if i == n {
			out = append(out, append([]int(nil), tuple...))
			return
		}
		for j := lo; j < len(allowed); j++ {
			tuple[i] = allowed[j]
			rec(i+1, j)
		}
	}
	rec(0, 0)
	return out
}

// distancesFrom lists the distances of an m-bank memory whose return
// number is at least minReturn.
func distancesFrom(m, minReturn int) []int {
	var out []int
	for d := 0; d < m; d++ {
		if ReturnNumber(m, d) >= minReturn {
			out = append(out, d)
		}
	}
	return out
}

// CapacityBound counts the access-set union through Theorem 1's
// cosets and tallies the path bound without a map; it must equal the
// union-of-sets formula on every placement of the census's triple
// grid (13, 4), its 4-stream grid (8, 2, 4) and its (16, 4, 4) section
// grid, on mixed CPU layouts, and on an m > 256 memory, whose bitset
// lives on the heap.
func TestMultiStreamBoundMatchesUnionOracle(t *testing.T) {
	grids := []boundGrid{
		{name: "triple grid", m: 13, nc: 4, distances: nondecreasing(distancesFrom(13, 1), 3), cpu: []int{0, 1, 2}},
		{name: "4-stream grid", m: 8, nc: 2, distances: nondecreasing(distancesFrom(8, 2), 4), cpu: []int{0, 1, 2, 3}},
		{name: "section grid", m: 16, s: 4, nc: 4, distances: nondecreasing(distancesFrom(16, 4), 2), cpu: []int{0, 0}},
		{name: "mixed CPUs", m: 12, s: 3, nc: 3, distances: nondecreasing(distancesFrom(12, 1), 3), cpu: []int{1, 0, 1}},
		{name: "two CPUs of four streams", m: 6, s: 2, nc: 2, distances: nondecreasing(distancesFrom(6, 1), 4), cpu: []int{0, 1, 1, 0}},
		{name: "m > 256", m: 384, s: 6, nc: 8, distances: [][]int{{1, 96}, {6, 128}, {0, 64}, {256, 300}}, cpu: []int{0, 0}},
	}
	for _, g := range grids {
		t.Logf("%s: %d placements", g.name, checkAgainstOracle(t, g))
	}

	// Random shapes: any CPU layout, sections and stream count.
	rng := rand.New(rand.NewSource(19850821))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(300)
		divs := []int{0}
		for s := 1; s <= m; s++ {
			if m%s == 0 {
				divs = append(divs, s)
			}
		}
		s := divs[rng.Intn(len(divs))]
		nc := 1 + rng.Intn(8)
		sets := make([]StreamSet, 1+rng.Intn(6))
		for i := range sets {
			sets[i] = StreamSet{Stream: stream.Infinite(m, rng.Intn(m), rng.Intn(m)), CPU: rng.Intn(3)}
		}
		if got, want := capacityAt(m, s, nc, sets), unionBound(m, s, nc, sets); !got.Equal(want) {
			t.Fatalf("m=%d s=%d nc=%d %+v: bound %s, oracle %s", m, s, nc, sets, got, want)
		}
	}
}
