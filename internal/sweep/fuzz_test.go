package sweep

import (
	"reflect"
	"testing"

	"ivm/internal/core"
)

// decodeFuzzPair maps raw fuzz bytes onto a valid sweep input:
// m in [1,16], n_c in [1,6], distances reduced mod m.
func decodeFuzzPair(mRaw, ncRaw, d1Raw, d2Raw uint8) (m, nc, d1, d2 int) {
	m = 1 + int(mRaw%16)
	nc = 1 + int(ncRaw%6)
	d1 = int(d1Raw) % m
	d2 = int(d2Raw) % m
	return
}

// fuzzSeeds is the seed corpus; the four bytes decode (via
// decodeFuzzPair) to one pair in each of the six conflict regimes.
var fuzzSeeds = [][4]uint8{
	{15, 3, 8, 8}, // m=16 nc=4 (8,8): self-conflict
	{11, 2, 1, 7}, // m=12 nc=3 (1,7): conflict-free
	{15, 3, 2, 6}, // m=16 nc=4 (2,6): disjoint-free
	{15, 1, 1, 2}, // m=16 nc=2 (1,2): unique-barrier
	{12, 3, 1, 3}, // m=13 nc=4 (1,3): barrier-possible
	{1, 0, 0, 1},  // m=2  nc=1 (0,1): conflicting
}

// The corpus must keep covering every regime the classifier can emit;
// this pins the decode scheme so corpus edits cannot silently drop one.
func TestFuzzSeedsCoverRegimes(t *testing.T) {
	seen := make(map[core.Regime]bool)
	for _, s := range fuzzSeeds {
		m, nc, d1, d2 := decodeFuzzPair(s[0], s[1], s[2], s[3])
		seen[core.Analyze(m, nc, d1, d2).Regime] = true
	}
	for _, reg := range []core.Regime{
		core.RegimeSelfConflict, core.RegimeConflictFree, core.RegimeDisjointFree,
		core.RegimeUniqueBarrier, core.RegimeBarrierPossible, core.RegimeConflicting,
	} {
		if !seen[reg] {
			t.Errorf("seed corpus covers no %s pair", reg)
		}
	}
}

// FuzzSweepPair differentially tests one pair per input: the cached
// parallel engine against the cold sequential sweep, the simulated
// range against the analytic bounds, and the analysis against the
// cyclic steady states.
func FuzzSweepPair(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1], s[2], s[3])
	}
	f.Fuzz(func(t *testing.T, mRaw, ncRaw, d1Raw, d2Raw uint8) {
		m, nc, d1, d2 := decodeFuzzPair(mRaw, ncRaw, d1Raw, d2Raw)
		specs := []ConfigSpec{PairSpec(m, nc, d1, d2)}
		seq := coldSpecs(specs, pairFold)[0]
		eng := NewEngine(Options{Workers: 2, CacheSize: 256})
		if par := sweepSpecs(eng, specs, pairFold)[0]; !reflect.DeepEqual(seq, par) {
			t.Fatalf("m=%d nc=%d (%d,%d): engine %+v != sequential %+v", m, nc, d1, d2, par, seq)
		}
		lo, hi := core.PairBandwidthBounds(m, nc, d1, d2)
		if seq.SimMin.Cmp(lo) < 0 || seq.SimMax.Cmp(hi) > 0 {
			t.Fatalf("m=%d nc=%d (%d,%d): sim [%s,%s] outside bounds [%s,%s]",
				m, nc, d1, d2, seq.SimMin, seq.SimMax, lo, hi)
		}
		if !seq.Agree {
			t.Fatalf("m=%d nc=%d (%d,%d): analysis disagrees with simulation: %+v", m, nc, d1, d2, seq)
		}
	})
}
