package sweep

import (
	"testing"

	"ivm/internal/memsys"
)

// TestDifferentialConsecutiveSections pins the consecutive-mapping
// cache against the cold sequential sweep. The canonicalisation group
// for consecutive sections is only the translations by multiples of
// m/s (scaling by units u != 1 can move a consecutive block across a
// section boundary: m=4, s=2, u=3 maps {0,1} to {0,3}), so the cached
// engine must agree with the uncached path everywhere while still
// collapsing translated placements onto shared orbits.
func TestDifferentialConsecutiveSections(t *testing.T) {
	grids := []struct{ m, s, nc int }{
		{8, 2, 2},
		{12, 3, 3},
		{12, 4, 2},
		{16, 4, 4},
	}
	// The second list translates the first stream's start by m/s.
	var specs, moved []ConfigSpec
	for _, g := range grids {
		for d1 := 0; d1 < g.m; d1 += 3 {
			for d2 := d1; d2 < g.m; d2 += 2 {
				specs = append(specs, SectionPairSpec(g.m, g.s, g.nc, d1, d2).WithPolicy(memsys.FixedPriority, memsys.ConsecutiveSections))
				spec := SectionPairSpec(g.m, g.s, g.nc, d1, d2).WithPolicy(memsys.FixedPriority, memsys.ConsecutiveSections)
				spec.Streams[0].B = g.m / g.s
				moved = append(moved, spec)
			}
		}
	}
	eng := NewEngine(Options{Workers: 4})
	sameRows(t, "consecutive", SpecGrid(specs), eng.SpecGrid(specs))
	sameResolves(t, "consecutive placements", eng, specs)
	fam := eng.Metrics().Families["section-consec"]
	if fam.Misses == 0 {
		t.Fatalf("consecutive sweeps never simulated: %+v", fam)
	}

	// Translating the first stream's start by m/s lands every
	// placement on an orbit the b1=0 pass already simulated: the
	// second pass must answer entirely from the cache.
	sameResolves(t, "translated consecutive", eng, moved)
	sameRows(t, "translated consecutive", SpecGrid(moved), eng.SpecGrid(moved))
	shifted := eng.Metrics().Families["section-consec"]
	if shifted.Misses != fam.Misses {
		t.Fatalf("translated pass simulated %d new orbits; the m/s translation group should cover it",
			shifted.Misses-fam.Misses)
	}
	if shifted.Hits <= fam.Hits {
		t.Fatalf("translated pass never hit the cache: %+v then %+v", fam, shifted)
	}

	// The same strides under the cyclic mapping are a different family
	// with (in general) different bandwidths; the two must not share
	// cache traffic.
	if _, ok := eng.Metrics().Families["section"]; ok {
		t.Fatal("consecutive sweeps leaked into the cyclic section family")
	}
}

// TestDifferentialConsecutiveResolve pins Resolve on consecutive
// specs: translated placements share an orbit (second resolve hits),
// and values match the cold single-placement simulation.
func TestDifferentialConsecutiveResolve(t *testing.T) {
	eng := NewEngine(Options{Workers: 1})
	spec := SectionPairSpec(12, 3, 2, 1, 5).WithPolicy(memsys.FixedPriority, memsys.ConsecutiveSections)
	spec.Streams[1].Sweep = false
	spec.Streams[1].B = 2
	cold := simulateSpecVec(spec, []int{1, 5, 0, 2})
	first, err := eng.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !first.BW.Equal(cold) {
		t.Fatalf("consecutive resolve b_eff %s, cold %s", first.BW, cold)
	}
	if first.Family != "section-consec" {
		t.Fatalf("consecutive resolve family %q", first.Family)
	}

	// Translate both starts by m/s = 4: same orbit, cache hit.
	shifted := SectionPairSpec(12, 3, 2, 1, 5).WithPolicy(memsys.FixedPriority, memsys.ConsecutiveSections)
	shifted.Streams[0].B = 4
	shifted.Streams[1].Sweep = false
	shifted.Streams[1].B = 6
	second, err := eng.Resolve(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if second.Path != PathCache {
		t.Fatalf("translated consecutive resolve path %v, want cache", second.Path)
	}
	if !second.BW.Equal(cold) {
		t.Fatalf("translated consecutive resolve b_eff %s, cold %s", second.BW, cold)
	}
}
