package sweep

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestSectionGridAgrees(t *testing.T) {
	for _, g := range []struct{ m, s, nc int }{
		{12, 2, 2}, {12, 3, 3}, {16, 4, 4}, {8, 2, 2},
	} {
		results := SectionGrid(g.m, g.s, g.nc)
		if len(results) == 0 {
			t.Fatalf("m=%d s=%d nc=%d: empty grid", g.m, g.s, g.nc)
		}
		for _, r := range results {
			if !r.Agree {
				t.Errorf("m=%d s=%d nc=%d d1=%d d2=%d: disagreement", r.M, r.S, r.NC, r.D1, r.D2)
			}
			if r.TheoryFree && r.SimFreeStarts == 0 {
				t.Errorf("m=%d s=%d nc=%d d1=%d d2=%d: theory-free but no simulated free start",
					r.M, r.S, r.NC, r.D1, r.D2)
			}
		}
	}
}

func TestSectionTableRendering(t *testing.T) {
	results := SectionGrid(8, 2, 2)
	out := SectionTable(results)
	if !strings.Contains(out, "theory free@") || !strings.Contains(out, "sim free starts") {
		t.Fatalf("table:\n%s", out)
	}
}

// Fig. 7's pair appears in the section grid as theory-free at offset 3.
func TestSectionGridContainsFig7(t *testing.T) {
	r := coldSpecs([]ConfigSpec{SectionPairSpec(12, 2, 2, 1, 1)}, sectionFold)[0]
	if !r.TheoryFree || r.TheoryStart != 3 {
		t.Fatalf("Fig. 7 pair: %+v", r)
	}
	if !r.Agree {
		t.Fatal("Fig. 7 pair disagrees")
	}
	if r.SimFreeStarts == 0 {
		t.Fatal("no simulated free start for Fig. 7's pair")
	}
}

// Engine.SectionGrid must stay byte-identical to SectionGrid for any
// worker count and cache configuration — the section cache only ever
// collapses placements that are isomorphic under the section pipeline
// (the full unit group).
func TestEngineSectionGridByteIdenticalToSequential(t *testing.T) {
	for _, g := range []struct{ m, s, nc int }{{12, 3, 3}, {8, 2, 2}} {
		seq := SectionGrid(g.m, g.s, g.nc)
		seqTable := SectionTable(seq)
		for _, opt := range []Options{
			{Workers: 1, CacheSize: -1},
			{Workers: 4},
			{Workers: 4, CacheSize: 64},
		} {
			eng := NewEngine(opt)
			par := eng.SectionGrid(g.m, g.s, g.nc)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("m=%d s=%d nc=%d opts %+v: parallel section grid differs", g.m, g.s, g.nc, opt)
			}
			if got := SectionTable(par); got != seqTable {
				t.Fatalf("m=%d s=%d nc=%d opts %+v: rendered section table differs", g.m, g.s, g.nc, opt)
			}
		}
	}
}

// The section cache must actually collapse orbits where the subgroup
// is nontrivial, and must account its traffic in the section counters
// only.
func TestEngineSectionGridCacheAccounting(t *testing.T) {
	// Units(16) has eight elements: plenty of nontrivial orbits.
	eng := NewEngine(Options{Workers: 2})
	eng.SectionGrid(16, 4, 4)
	m := eng.Metrics()
	sf := m.Family("section")
	if sf.Hits == 0 {
		t.Fatal("sectioned 16-bank grid never hit the cache")
	}
	if sf.Misses != m.CyclesFound {
		t.Fatalf("section misses %d != cycles found %d", sf.Misses, m.CyclesFound)
	}
	if len(m.Families) != 1 {
		t.Fatalf("section sweep leaked into other family counters: %+v", m.Families)
	}
	if hr := m.FamilyHitRate("section"); hr <= 0 || hr >= 1 {
		t.Fatalf("section hit rate %v out of (0,1)", hr)
	}
	if snap := eng.Snapshot(); snap.CacheHitRate != m.FamilyHitRate("section") {
		t.Fatalf("one-family snapshot hit rate %v != section rate %v", snap.CacheHitRate, m.FamilyHitRate("section"))
	}
}

// The section-units campaign (docs/CACHING.md §5): on every
// EXPERIMENTS.md section grid, the engine canonicalising under the full
// unit group must agree result-for-result with the cold sequential
// sweep, and must collapse some placements into cache hits.
func TestSectionUnitsCampaign(t *testing.T) {
	for _, g := range []struct{ m, s, nc int }{
		{12, 2, 2}, {12, 3, 3}, {16, 4, 4}, {8, 2, 2},
	} {
		cold := SectionGrid(g.m, g.s, g.nc)
		// One worker: concurrent workers can both miss the same key
		// (results identical, counters noisy), and the hit count below
		// needs deterministic counters.
		eng := NewEngine(Options{Workers: 1})
		if got := eng.SectionGrid(g.m, g.s, g.nc); !reflect.DeepEqual(cold, got) {
			t.Fatalf("m=%d s=%d nc=%d: engine differs from cold sweep", g.m, g.s, g.nc)
		}
		if hits := eng.Metrics().Family("section").Hits; hits == 0 {
			t.Fatalf("m=%d s=%d nc=%d: full unit group produced no cache hits", g.m, g.s, g.nc)
		}
	}
}

// Random sectioned pairs: cached engine vs cold sequential sweep,
// across random (m, s, n_c, d1, d2) — the property that cached equals
// uncached everywhere, not just on the curated grids.
func TestDifferentialRandomSections(t *testing.T) {
	rng := rand.New(rand.NewSource(19850804))
	var specs []ConfigSpec
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(15) // 2..16
		divs := divisors(m)
		s := divs[rng.Intn(len(divs))]
		nc := 1 + rng.Intn(4)
		specs = append(specs, SectionPairSpec(m, s, nc, rng.Intn(m), rng.Intn(m)))
	}
	eng := NewEngine(Options{Workers: 4})
	sameRows(t, "random sections", coldSpecs(specs, sectionFold), sweepSpecs(eng, specs, sectionFold))
}

// FuzzSweepSectionPair differentially tests one sectioned pair per
// input: the cached parallel engine against the cold sequential sweep.
func FuzzSweepSectionPair(f *testing.F) {
	seeds := [][5]uint8{
		{11, 1, 2, 1, 1}, // m=12 s=2 nc=3 (1,1): Fig. 7's pair
		{15, 3, 3, 1, 5}, // m=16 s=4 nc=4 (1,5): X-MP shape, unit orbit
		{7, 0, 1, 2, 6},  // m=8 s=1 nc=2 (2,6): sectionless degenerate
		{11, 2, 0, 3, 9}, // m=12 s=3 nc=1 (3,9): strides inside one section
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, mRaw, sRaw, ncRaw, d1Raw, d2Raw uint8) {
		m := 1 + int(mRaw%16)
		divs := divisors(m)
		s := divs[int(sRaw)%len(divs)]
		nc := 1 + int(ncRaw%4)
		d1, d2 := int(d1Raw)%m, int(d2Raw)%m
		specs := []ConfigSpec{SectionPairSpec(m, s, nc, d1, d2)}
		seq := coldSpecs(specs, sectionFold)[0]
		eng := NewEngine(Options{Workers: 2, CacheSize: 256})
		if par := sweepSpecs(eng, specs, sectionFold)[0]; !reflect.DeepEqual(seq, par) {
			t.Fatalf("m=%d s=%d nc=%d (%d,%d): engine %+v != sequential %+v", m, s, nc, d1, d2, par, seq)
		}
	})
}

// The fixed-placement triple census: no capacity-bound violations, and
// the bound attained by some triples.
func TestTripleSweepBoundsHold(t *testing.T) {
	results := SpecGrid(TripleCensusSpecs(8, 2, [3]int{0, 1, 2}))
	s := SummariseSpecGrid(results)
	if s.Violations != 0 {
		t.Fatalf("%d capacity-bound violations", s.Violations)
	}
	if s.Triples == 0 || s.TightStarts == 0 {
		t.Fatalf("summary %+v: expected some tight triples", s)
	}
	// All-unit-stride triple with spread starts is conflict-free: bound
	// 3, attained.
	for _, r := range results {
		if st := r.Spec.Streams; st[0].D == 1 && st[1].D == 1 && st[2].D == 1 {
			if r.TightStarts != 1 || r.SimMin.Float() != 3 {
				t.Fatalf("unit triple: %+v", r)
			}
		}
	}
}

func TestTripleSweepXMPScale(t *testing.T) {
	if testing.Short() {
		t.Skip("16-bank triple sweep")
	}
	s := SummariseSpecGrid(SpecGrid(TripleCensusSpecs(16, 4, [3]int{0, 1, 2})))
	if s.Violations != 0 {
		t.Fatalf("%d violations at X-MP scale", s.Violations)
	}
	// The bound should be attained reasonably often (conflict-free and
	// saturated triples) but not always (barrier triples sit strictly
	// inside it).
	if s.TightStarts == 0 || s.TightStarts == s.Triples {
		t.Fatalf("tightness degenerate: %d/%d", s.TightStarts, s.Triples)
	}
}

// divisors returns the positive divisors of n > 0 in increasing order.
func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}
