package sweep

import (
	"reflect"
	"testing"
)

// The EXPERIMENTS.md census counters, pinned exactly. The census digest
// pins the tables; this pins the work the engine does to produce them.
// One Workers: 1 pass runs every census grid on one fresh engine: pairs
// (8, 2), (12, 3), (13, 4), (16, 4), (32, 2), sections (12, 3, 3) and
// (16, 4, 4), the (13, 4) triple grid and the (8, 2, 4) 4-stream grid.
// Every count is exact: with one worker no two misses race, and the
// pair and section orbits (the only ones the census caches; the triple
// and 4-stream class leads simulate without the cache) fit the default
// cache. A change to the answer route's work fails here until the
// golden is updated with the reason.
func TestCensusCountersGolden(t *testing.T) {
	eng := NewEngine(Options{Workers: 1})
	for _, g := range [][2]int{{8, 2}, {12, 3}, {13, 4}, {16, 4}, {32, 2}} {
		eng.Grid(g[0], g[1])
	}
	for _, g := range [][3]int{{12, 3, 3}, {16, 4, 4}} {
		eng.SectionGrid(g[0], g[1], g[2])
	}
	eng.TripleGrid(13, 4)
	eng.NStreamGrid(8, 2, 4)
	if n := eng.CacheEvicted(); n != 0 {
		t.Fatalf("the census evicted %d cache entries", n)
	}

	want := Metrics{
		CacheHits: 84930, CacheMisses: 112918, AnalyticHits: 8369,
		Families: map[string]FamilyMetrics{
			"pair":    {Hits: 9116, Misses: 1965, Analytic: 8369},
			"section": {Hits: 1592, Misses: 760},
			"triple":  {Hits: 53742, Misses: 23153},
			"stream4": {Hits: 20480, Misses: 87040},
		},
		CacheEntries: 2725, CyclesFound: 112918, StepsSimulated: 7250008, PairsSwept: 1587,
	}
	if got := eng.Metrics(); !reflect.DeepEqual(got, want) {
		t.Errorf("census metrics\ngot  %+v\nwant %+v", got, want)
	}
	wantTally := map[string]FamilyProvenance{
		"pair": {Analytic: 8369, CacheHits: 9116, SimPacked: 1965, Resolved: 19450, SimClocks: 188615,
			Theorems: map[string]int64{"eq-29": 2700, "theorem-2": 1897, "theorem-3": 3772}},
		"section": {CacheHits: 1592, SimPacked: 760, Resolved: 2352, SimClocks: 19635},
		"triple":  {CacheHits: 53742, SimPacked: 23153, Resolved: 76895, SimClocks: 4664306},
		"stream4": {CacheHits: 20480, SimPacked: 87040, Resolved: 107520, SimClocks: 2377452},
	}
	if got := eng.Tally(); !reflect.DeepEqual(got, wantTally) {
		t.Errorf("census tally\ngot  %+v\nwant %+v", got, wantTally)
	}
}
