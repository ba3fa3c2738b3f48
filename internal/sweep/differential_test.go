package sweep

import (
	"math/rand"
	"reflect"
	"testing"

	"ivm/internal/core"
)

// Differential harness: the parallel engine, the sequential sweep, and
// the analytic bounds are three independent routes to the same numbers.
// Random pairs must agree result-for-result, and every simulated
// bandwidth must sit inside the provable [1/n_c, capacity] sandwich.

// sameRows fails the test at the first row where the engine's results
// differ from the cold oracle's.
func sameRows[R any](t *testing.T, what string, cold, eng []R) {
	t.Helper()
	if len(cold) != len(eng) {
		t.Fatalf("%s: engine returned %d rows, cold oracle %d", what, len(eng), len(cold))
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i], eng[i]) {
			t.Fatalf("%s row %d: engine %+v != cold oracle %+v", what, i, eng[i], cold[i])
		}
	}
}

func TestDifferentialRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(19850712))
	var specs []ConfigSpec
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(15) // 2..16
		nc := 1 + rng.Intn(4) // 1..4
		specs = append(specs, PairSpec(m, nc, rng.Intn(m), rng.Intn(m)))
	}
	eng := NewEngine(Options{Workers: 4})
	seq := coldSpecs(specs, pairFold)
	sameRows(t, "random pairs", seq, sweepSpecs(eng, specs, pairFold))
	for _, r := range seq {
		lo, hi := core.PairBandwidthBounds(r.M, r.NC, r.D1, r.D2)
		if r.SimMin.Cmp(lo) < 0 || r.SimMax.Cmp(hi) > 0 {
			t.Fatalf("m=%d nc=%d (%d,%d): sim [%s,%s] outside bounds [%s,%s]",
				r.M, r.NC, r.D1, r.D2, r.SimMin, r.SimMax, lo, hi)
		}
		if !r.Agree {
			t.Fatalf("m=%d nc=%d (%d,%d): analysis and simulation disagree: %+v", r.M, r.NC, r.D1, r.D2, r)
		}
	}
	if eng.Metrics().CacheHits == 0 {
		t.Fatal("50 random pairs never hit the cache; canonicalisation is not collapsing orbits")
	}
}

// Every grid pair's simulated range must respect the analytic bounds —
// the bound check over the full EXPERIMENTS.md grid, not just random
// samples.
func TestDifferentialGridWithinBounds(t *testing.T) {
	eng := NewEngine(Options{Workers: 4})
	for _, g := range experimentsGrid {
		for _, r := range eng.Grid(g.m, g.nc) {
			lo, hi := core.PairBandwidthBounds(r.M, r.NC, r.D1, r.D2)
			if r.SimMin.Cmp(lo) < 0 || r.SimMax.Cmp(hi) > 0 {
				t.Fatalf("m=%d nc=%d (%d,%d): sim [%s,%s] outside bounds [%s,%s]",
					r.M, r.NC, r.D1, r.D2, r.SimMin, r.SimMax, lo, hi)
			}
		}
	}
}

// The memo cache must be semantics-preserving: for every entry the
// cache holds — a superset of the keys any hit was answered from — a
// cold recomputation of that canonical representative yields the
// identical rational, and pair-level results computed through the
// cache match the cache-free sweep field-for-field.
func TestCacheSemanticsPreserving(t *testing.T) {
	eng := NewEngine(Options{Workers: 4})
	cached := eng.Grid(12, 3)
	eng.Grid(12, 3) // second pass: every simulated start is a hit
	if eng.Metrics().CacheHits == 0 {
		t.Fatal("no cache hits observed")
	}
	records := eng.CacheRecords()
	if len(records) == 0 {
		t.Fatal("no cache entries to recompute")
	}
	for _, r := range records {
		if r.Family != "pair" {
			t.Fatalf("pair grid produced a %q cache entry: %+v", r.Family, r)
		}
		// Simulate the canonical configuration v = (d1, d2, b1, b2)
		// cold.
		if len(r.Vec) != 4 {
			t.Fatalf("pair entry %+v has a %d-element vector", r, len(r.Vec))
		}
		cold := simulateSpecVec(PairSpec(r.M, r.NC, r.Vec[0], r.Vec[1]), r.Vec)
		if !r.BW.Equal(cold) {
			t.Fatalf("entry %+v: cached %s != cold recomputation %s", r, r.BW, cold)
		}
	}
	for i, r := range Grid(12, 3) {
		c := cached[i]
		if !c.SimMin.Equal(r.SimMin) || !c.SimMax.Equal(r.SimMax) || c.Agree != r.Agree {
			t.Fatalf("pair (%d,%d): cached sweep %+v != cache-free sweep %+v", r.D1, r.D2, c, r)
		}
	}
}
