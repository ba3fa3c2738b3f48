package sweep

import (
	"reflect"
	"testing"

	"ivm/internal/core"
)

// The analytic-gate differential suite: every regime the classifier
// gate short-circuits is cross-checked against forced simulation over
// exhaustive small grids, and the Metrics accounting identity
// analytic_hits + sim_runs == items is pinned as a property. Simulation
// stays authoritative — these tests are the license for the gate to
// answer without it.

// TestDifferentialAnalyticGateGrids runs whole grids three ways — gate
// on (default), gate forced off, and the sequential cold path — and
// demands identical results, with the gate's accounting visible only
// where it was enabled.
func TestDifferentialAnalyticGateGrids(t *testing.T) {
	off := false
	for _, g := range experimentsGrid {
		seq := Grid(g.m, g.nc)
		on := NewEngine(Options{Workers: 4})
		gated := on.Grid(g.m, g.nc)
		forced := NewEngine(Options{Workers: 4, Analytic: &off})
		simulated := forced.Grid(g.m, g.nc)
		if !reflect.DeepEqual(gated, simulated) {
			t.Fatalf("m=%d nc=%d: gate on vs forced simulation differ", g.m, g.nc)
		}
		if !reflect.DeepEqual(gated, seq) {
			t.Fatalf("m=%d nc=%d: gate on vs sequential differ", g.m, g.nc)
		}
		if on.Metrics().AnalyticHits == 0 {
			t.Fatalf("m=%d nc=%d: gate enabled but no analytic hits", g.m, g.nc)
		}
		if n := forced.Metrics().AnalyticHits; n != 0 {
			t.Fatalf("m=%d nc=%d: gate disabled yet %d analytic hits", g.m, g.nc, n)
		}
	}
}

// TestDifferentialAnalyticGatePlacements is the per-placement oracle
// check: for every distance pair of small exhaustive grids, every
// placement the gate answers is recomputed by a cold simulation on a
// fresh system, and the values must be equal exactly (both are reduced
// rationals). Gated regimes are tallied so a silently inactive gate
// cannot pass.
func TestDifferentialAnalyticGatePlacements(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive placement grid")
	}
	gatedByRegime := make(map[core.Regime]int)
	for _, g := range []struct{ m, nc int }{{8, 2}, {12, 3}, {13, 2}} {
		for d1 := 0; d1 < g.m; d1++ {
			for d2 := 0; d2 < g.m; d2++ {
				gate := core.NewPairGate(g.m, g.nc, d1, d2)
				if !gate.Active() {
					continue
				}
				spec := PairSpec(g.m, g.nc, d1, d2)
				regime := core.Analyze(g.m, g.nc, d1, d2).Regime // the verdict the gate compiles from
				for b2 := 0; b2 < g.m; b2++ {
					v, ok := gate.BandwidthAt(0, b2)
					if !ok {
						continue
					}
					gatedByRegime[regime]++
					if want := simulateSpecVec(spec, []int{d1, d2, 0, b2}); !v.Equal(want) {
						t.Fatalf("m=%d nc=%d d=(%d,%d) b2=%d [%s]: gate %s, simulation %s",
							g.m, g.nc, d1, d2, b2, regime, v, want)
					}
				}
			}
		}
	}
	for _, r := range []core.Regime{core.RegimeConflictFree, core.RegimeDisjointFree, core.RegimeUniqueBarrier} {
		if gatedByRegime[r] == 0 {
			t.Fatalf("no gated placements in regime %s; grids too small for the theorem", r)
		}
	}
	for r := range gatedByRegime {
		switch r {
		case core.RegimeConflictFree, core.RegimeDisjointFree, core.RegimeUniqueBarrier:
		default:
			t.Fatalf("gate answered placements in unexpected regime %s", r)
		}
	}
}

// TestAnalyticGateAccounting pins the work-conservation property: every
// start is answered exactly once, by the gate, the cache, or a
// simulation. With the cache disabled, sim_runs is CyclesFound, so
// analytic_hits + cycles_found == starts exactly.
func TestAnalyticGateAccounting(t *testing.T) {
	for _, g := range experimentsGrid {
		uncached := NewEngine(Options{Workers: 2, CacheSize: -1})
		results := uncached.Grid(g.m, g.nc)
		starts := int64(0)
		for _, r := range results {
			starts += int64(r.Starts)
		}
		m := uncached.Metrics()
		if m.AnalyticHits+m.CyclesFound != starts {
			t.Fatalf("m=%d nc=%d uncached: analytic %d + cycles %d != %d starts",
				g.m, g.nc, m.AnalyticHits, m.CyclesFound, starts)
		}
		if m.CacheHits != 0 || m.CacheMisses != 0 {
			t.Fatalf("m=%d nc=%d: disabled cache saw traffic: %+v", g.m, g.nc, m)
		}

		cached := NewEngine(Options{Workers: 2})
		cached.Grid(g.m, g.nc)
		cm := cached.Metrics()
		if cm.AnalyticHits+cm.CacheHits+cm.CacheMisses != starts {
			t.Fatalf("m=%d nc=%d cached: analytic %d + hits %d + misses %d != %d starts",
				g.m, g.nc, cm.AnalyticHits, cm.CacheHits, cm.CacheMisses, starts)
		}
		if cm.CacheMisses != cm.CyclesFound {
			t.Fatalf("m=%d nc=%d: misses %d != cycles %d", g.m, g.nc, cm.CacheMisses, cm.CyclesFound)
		}
		if cm.AnalyticHits != m.AnalyticHits {
			t.Fatalf("m=%d nc=%d: analytic hits depend on caching: %d vs %d",
				g.m, g.nc, cm.AnalyticHits, m.AnalyticHits)
		}
		fam := cm.Family("pair")
		if fam.Analytic != cm.AnalyticHits {
			t.Fatalf("m=%d nc=%d: family analytic %d != total %d", g.m, g.nc, fam.Analytic, cm.AnalyticHits)
		}
	}
}

// TestAnalyticGateScalarKernelAgrees re-runs a gated grid on the scalar
// oracle kernel with the gate off: the combination every other test
// implies must agree is checked directly.
func TestAnalyticGateScalarKernelAgrees(t *testing.T) {
	off := false
	def := NewEngine(Options{Workers: 2})
	scalar := NewEngine(Options{Workers: 2, Analytic: &off, PackedKernel: &off})
	if !reflect.DeepEqual(def.Grid(13, 4), scalar.Grid(13, 4)) {
		t.Fatal("default engine (gate + packed kernel) differs from scalar no-gate engine")
	}
}
