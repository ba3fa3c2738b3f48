package sweep

import (
	"reflect"
	"testing"

	"ivm/internal/modmath"
)

// The EXPERIMENTS.md cross-validation grid: every (m, n_c) the repo's
// strongest sequential check runs, now also the parallel acceptance
// grid.
var experimentsGrid = []struct{ m, nc int }{{8, 2}, {12, 3}, {13, 4}, {16, 4}}

// Engine.Grid must be indistinguishable from Grid — same results in
// the same order, hence byte-identical rendered tables — for any
// worker count and cache configuration.
func TestEngineGridByteIdenticalToSequential(t *testing.T) {
	for _, g := range experimentsGrid {
		seq := Grid(g.m, g.nc)
		seqTable := Table(seq)
		for _, opt := range []Options{
			{Workers: 1, CacheSize: -1},
			{Workers: 4},
			{Workers: 4, CacheSize: 64},
			{Workers: 3, CacheSize: -1, CollectStats: true},
		} {
			eng := NewEngine(opt)
			par := eng.Grid(g.m, g.nc)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("m=%d nc=%d opts %+v: parallel results differ from sequential", g.m, g.nc, opt)
			}
			if got := Table(par); got != seqTable {
				t.Fatalf("m=%d nc=%d opts %+v: rendered table differs", g.m, g.nc, opt)
			}
		}
	}
}

func TestEngineSectionGridMatchesSequential(t *testing.T) {
	seq := SectionGrid(12, 4, 3)
	eng := NewEngine(Options{Workers: 4})
	par := eng.SectionGrid(12, 4, 3)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel section grid differs from sequential")
	}
	if SectionTable(seq) != SectionTable(par) {
		t.Fatal("rendered section tables differ")
	}
}

// The fixed-placement triple census through the engine must match the
// cold census row for row, and so summarise identically.
func TestEngineTriplesMatchesSequential(t *testing.T) {
	specs := TripleCensusSpecs(8, 2, [3]int{0, 1, 2})
	seq := SpecGrid(specs)
	eng := NewEngine(Options{Workers: 4})
	par := eng.SpecGrid(specs)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel triples differ from sequential")
	}
	if !reflect.DeepEqual(SummariseSpecGrid(seq), SummariseSpecGrid(par)) {
		t.Fatal("triple summaries differ")
	}
}

func TestEngineMetricsAccounting(t *testing.T) {
	eng := NewEngine(Options{Workers: 2})
	results := eng.Grid(12, 3)
	m := eng.Metrics()
	if m.PairsSwept != int64(len(results)) {
		t.Fatalf("PairsSwept = %d, want %d", m.PairsSwept, len(results))
	}
	starts := int64(0)
	for _, r := range results {
		starts += int64(r.Starts)
	}
	if m.AnalyticHits+m.CacheHits+m.CacheMisses != starts {
		t.Fatalf("analytic %d + hits %d + misses %d != %d starts",
			m.AnalyticHits, m.CacheHits, m.CacheMisses, starts)
	}
	if m.CacheMisses != m.CyclesFound {
		t.Fatalf("misses %d != cycles found %d: every miss simulates exactly one cycle", m.CacheMisses, m.CyclesFound)
	}
	if m.CacheHits == 0 {
		t.Fatal("the 12-bank grid has nontrivial unit orbits; expected cache hits")
	}
	if m.AnalyticHits == 0 {
		t.Fatal("the 12-bank grid is rich in conflict-free pairs; expected analytic hits")
	}
	if m.StepsSimulated == 0 || m.CacheEntries == 0 {
		t.Fatalf("metrics not accounted: %+v", m)
	}
	if hr := m.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", hr)
	}
	if tbl := m.Table(); tbl == "" {
		t.Fatal("empty metrics table")
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, CacheSize: -1})
	eng.Grid(8, 2)
	m := eng.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 || m.CacheEntries != 0 {
		t.Fatalf("disabled cache still counted: %+v", m)
	}
	if m.CyclesFound == 0 {
		t.Fatal("no cycles counted")
	}
}

// A pathologically small cache must evict, not break: results stay
// identical, the entry count stays bounded and the drops are counted.
func TestEngineCacheEviction(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, CacheSize: 1})
	seq := Grid(12, 3)
	par := eng.Grid(12, 3)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("eviction changed results")
	}
	if n := eng.Metrics().CacheEntries; n > cacheShardCount {
		t.Fatalf("cache holds %d entries, bound is one per shard", n)
	}
	if eng.CacheEvicted() == 0 {
		t.Fatal("a 1-entry cache evicted nothing")
	}
}

// Engine.Stats returns a merged per-bank view covering exactly the
// simulated (non-cached) states.
func TestEngineCollectStats(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, CacheSize: -1, CollectStats: true})
	eng.Grid(8, 2)
	col := eng.Stats()
	if col == nil {
		t.Fatal("CollectStats set but Stats() is nil")
	}
	if col.TotalGrants() == 0 || col.ObservedClocks() == 0 {
		t.Fatal("merged collector is empty")
	}
	// Without the option no collector is built.
	plain := NewEngine(Options{Workers: 2})
	plain.Grid(8, 2)
	if plain.Stats() != nil {
		t.Fatal("Stats() must be nil when CollectStats is off")
	}
}

// The canonical key is constant on every isomorphism orbit: composing
// a unit scaling j -> u·j with any translation j -> j + t (all t are
// allowed on a sectionless memory) lands on the same representative.
func TestCanonicalKeyOrbitInvariant(t *testing.T) {
	w := &worker{e: NewEngine(Options{})}
	pairKey := func(m, d1, d2, b1, b2 int) cacheKey {
		cs := w.compile(PairSpec(m, 4, d1, d2))
		return keyAt(cs, []int{b1, b2})
	}
	for _, m := range []int{5, 12, 16} {
		units := modmath.Units(m)
		for d1 := 0; d1 < m; d1++ {
			for d2 := 0; d2 < m; d2 += 3 {
				for b2 := 0; b2 < m; b2 += 5 {
					want := pairKey(m, d1, d2, 0, b2)
					for _, u := range units {
						for tr := 0; tr < m; tr += 4 {
							got := pairKey(m, u*d1, u*d2, tr, u*b2+tr)
							if got != want {
								t.Fatalf("m=%d (%d,%d;0,%d) under u=%d t=%d: key %+v != %+v",
									m, d1, d2, b2, u, tr, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// Triple keys are constant on affine orbits of (d1,d2,d3; b1,b2,b3);
// section keys under the full unit group composed with translations by
// multiples of s.
func TestCanonicalKeyOrbitInvariantTripleAndSection(t *testing.T) {
	w := &worker{e: NewEngine(Options{})}
	tripleKey := func(m, d1, d2, d3, b2, b3 int) cacheKey {
		cs := w.compile(TripleSpec(m, 2, [3]int{d1, d2, d3}))
		return keyAt(cs, []int{0, b2, b3})
	}
	sectionKey := func(m, s, d1, d2, b1, b2 int) cacheKey {
		cs := w.compile(SectionPairSpec(m, s, 2, d1, d2))
		return keyAt(cs, []int{b1, b2})
	}
	for _, m := range []int{8, 12} {
		for d1 := 0; d1 < m; d1 += 2 {
			for d2 := 1; d2 < m; d2 += 3 {
				for b2 := 0; b2 < m; b2 += 3 {
					want := tripleKey(m, d1, d2, 3, b2, 5)
					for _, u := range modmath.Units(m) {
						if got := tripleKey(m, u*d1, u*d2, u*3, u*b2, u*5); got != want {
							t.Fatalf("m=%d triple (%d,%d,3;%d,5) scaled by %d: %+v != %+v",
								m, d1, d2, b2, u, got, want)
						}
					}
					s := 4
					wantSec := sectionKey(m, s, d1, d2, 0, b2)
					for _, u := range modmath.Units(m) {
						for tr := 0; tr < m; tr += s {
							if got := sectionKey(m, s, u*d1, u*d2, tr, u*b2+tr); got != wantSec {
								t.Fatalf("m=%d s=%d (%d,%d;0,%d) under u=%d t=%d: %+v != %+v",
									m, s, d1, d2, b2, u, tr, got, wantSec)
							}
						}
					}
				}
			}
		}
	}
}
