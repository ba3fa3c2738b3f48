package sweep

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Engine.TripleGrid must be indistinguishable from TripleGrid — same
// results in the same order, hence byte-identical rendered tables —
// for any worker count and cache configuration.
func TestEngineTripleGridByteIdenticalToSequential(t *testing.T) {
	seq := TripleGrid(6, 2)
	seqTable := TripleGridTable(seq)
	for _, opt := range []Options{
		{Workers: 1, CacheSize: -1},
		{Workers: 4},
		{Workers: 4, CacheSize: 64},
		{Workers: 3, CacheSize: -1},
	} {
		eng := NewEngine(opt)
		par := eng.TripleGrid(6, 2)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("opts %+v: parallel triple grid differs from sequential", opt)
		}
		if got := TripleGridTable(par); got != seqTable {
			t.Fatalf("opts %+v: rendered triple table differs", opt)
		}
	}
}

// The acceptance grid of EXPERIMENTS.md: on the prime-modulus triple
// grid (7, 2) the cache must collapse at least half of the placements
// onto cached orbit representatives. (Power-of-two moduli fall short
// of 50% — even vectors have large stabilisers under unit scaling; see
// docs/CACHING.md — which is why the acceptance grid is prime.)
func TestEngineTripleGridHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full (7,2) triple grid")
	}
	eng := NewEngine(Options{})
	results := eng.TripleGrid(7, 2)
	m := eng.Metrics()
	starts := int64(0)
	for _, r := range results {
		starts += int64(r.Starts)
	}
	tf := m.Family("triple")
	if tf.Hits+tf.Misses != starts {
		t.Fatalf("triple hits %d + misses %d != %d placements",
			tf.Hits, tf.Misses, starts)
	}
	if hr := m.FamilyHitRate("triple"); hr < 0.5 {
		t.Fatalf("triple hit rate %.2f below the 0.5 acceptance floor", hr)
	}
	if len(m.Families) != 1 {
		t.Fatalf("triple sweep leaked into other family counters: %+v", m.Families)
	}
	if s := SummariseTripleGrid(7, 2, results); s.Violations != 0 {
		t.Fatalf("%d capacity-bound violations", s.Violations)
	}
}

// Random distance triples: the cached engine, the cold sequential
// sweep and the per-placement capacity bounds are three independent
// routes to the same numbers.
func TestDifferentialRandomTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(19850803))
	var specs []ConfigSpec
	for trial := 0; trial < 12; trial++ {
		m := 2 + rng.Intn(7) // 2..8
		nc := 1 + rng.Intn(3)
		specs = append(specs, TripleSpec(m, nc, [3]int{rng.Intn(m), rng.Intn(m), rng.Intn(m)}))
	}
	eng := NewEngine(Options{Workers: 4})
	seq := SpecGrid(specs)
	sameRows(t, "random triples", seq, eng.SpecGrid(specs))
	if s := SummariseSpecGrid(seq); s.Violations != 0 {
		t.Fatalf("%d capacity-bound violations", s.Violations)
	}
	if eng.Metrics().Family("triple").Hits == 0 {
		t.Fatal("random triples never hit the cache; canonicalisation is not collapsing orbits")
	}
}

// The census and the all-placements sweep must tell one story: the
// fixed placement (0, 1, 2) is one of the m^2 swept placements, so its
// bandwidth lies inside [SimMin, SimMax].
func TestTripleCensusInsideGridRange(t *testing.T) {
	census := tripleResults(SpecGrid(TripleCensusSpecs(6, 2, [3]int{0, 1, 2})))
	grid := TripleGrid(6, 2)
	if len(census) != len(grid) {
		t.Fatalf("census has %d triples, grid %d", len(census), len(grid))
	}
	for i, c := range census {
		g := grid[i]
		if c.D != g.D {
			t.Fatalf("row %d: census triple %v != grid triple %v", i, c.D, g.D)
		}
		if c.SimMin.Cmp(g.SimMin) < 0 || c.SimMin.Cmp(g.SimMax) > 0 {
			t.Fatalf("triple %v: census bandwidth %s outside grid range [%s, %s]",
				c.D, c.SimMin, g.SimMin, g.SimMax)
		}
	}
}

func TestTripleGridSummaryAndTable(t *testing.T) {
	results := TripleGrid(4, 1)
	s := SummariseTripleGrid(4, 1, results)
	if s.Triples != len(results) || s.Starts != 16*len(results) {
		t.Fatalf("summary miscounts: %+v over %d triples", s, len(results))
	}
	if s.Violations != 0 {
		t.Fatalf("%d violations", s.Violations)
	}
	if s.TightSomewhere == 0 || s.TightStarts == 0 {
		t.Fatalf("no tight placements at all: %+v", s)
	}
	out := TripleGridTable(results)
	for _, col := range []string{"d1", "d3", "sim min", "sim max", "tight"} {
		if !strings.Contains(out, col) {
			t.Fatalf("table missing %q:\n%s", col, out)
		}
	}
}

// decodeFuzzTriple maps raw fuzz bytes onto a valid triple-sweep
// input: m in [1,8] (the all-placements sweep is m^2 per triple),
// n_c in [1,4], distances reduced mod m.
func decodeFuzzTriple(mRaw, ncRaw, d1Raw, d2Raw, d3Raw uint8) (m, nc int, d [3]int) {
	m = 1 + int(mRaw%8)
	nc = 1 + int(ncRaw%4)
	d = [3]int{int(d1Raw) % m, int(d2Raw) % m, int(d3Raw) % m}
	return
}

// FuzzSweepTriple differentially tests one distance triple per input:
// the cached parallel engine against the cold sequential sweep, and
// every placement against its capacity bound.
func FuzzSweepTriple(f *testing.F) {
	seeds := [][5]uint8{
		{7, 1, 1, 1, 1}, // m=8 nc=2 (1,1,1): conflict-free from spread starts
		{7, 1, 2, 4, 6}, // m=8 nc=2 (2,4,6): even strides, half the banks
		{7, 3, 0, 1, 2}, // m=8 nc=4 (0,1,2): a stalling zero stride
		{5, 2, 1, 2, 3}, // m=6 nc=3 (1,2,3): mixed gcds
		{3, 0, 3, 3, 3}, // m=4 nc=1 (3,3,3): common unit stride 3
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, mRaw, ncRaw, d1Raw, d2Raw, d3Raw uint8) {
		m, nc, d := decodeFuzzTriple(mRaw, ncRaw, d1Raw, d2Raw, d3Raw)
		specs := []ConfigSpec{TripleSpec(m, nc, d)}
		seq := SpecGrid(specs)[0]
		eng := NewEngine(Options{Workers: 2, CacheSize: 256})
		if par := eng.SpecGrid(specs)[0]; !reflect.DeepEqual(seq, par) {
			t.Fatalf("m=%d nc=%d d=%v: engine %+v != sequential %+v", m, nc, d, par, seq)
		}
		if seq.Violations != 0 {
			t.Fatalf("m=%d nc=%d d=%v: %d capacity-bound violations", m, nc, d, seq.Violations)
		}
	})
}
