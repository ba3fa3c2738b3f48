package sweep

import (
	"fmt"
	"testing"

	"ivm/internal/memsys"
)

// The policy differential campaign: every (priority, mapping) pair is
// held to three-way agreement — cold sequential sweep vs. cold engine
// vs. warm engine second pass — with zero mismatches, per-family cache
// traffic isolation, provenance conservation and packed-vs-scalar
// engine equivalence. This suite is the executable form of the
// bank-blind arbitration lemma in docs/CACHING.md: the canonicalisation
// pipeline depends only on the mapping, so the cache must be exact
// under every arbitration rule.

// policyCombos enumerates the swept policy space. Consecutive mapping
// requires sections, so sectionless grids skip those combos.
var policyCombos = []struct {
	priority memsys.PriorityRule
	mapping  memsys.SectionMapping
}{
	{memsys.FixedPriority, memsys.CyclicSections},
	{memsys.FixedPriority, memsys.ConsecutiveSections},
	{memsys.CyclicPriority, memsys.CyclicSections},
	{memsys.CyclicPriority, memsys.ConsecutiveSections},
	{memsys.RoundRobinPerCPU, memsys.CyclicSections},
	{memsys.RoundRobinPerCPU, memsys.ConsecutiveSections},
}

// policySpecs builds the campaign's spec list for one policy combo:
// sectioned pairs (both streams on CPU 0) and sectionless cross-CPU
// pairs where the mapping permits.
func policySpecs(priority memsys.PriorityRule, mapping memsys.SectionMapping) []ConfigSpec {
	var specs []ConfigSpec
	if mapping == memsys.CyclicSections {
		for _, g := range []struct{ m, nc int }{{8, 2}, {12, 3}} {
			for d1 := 0; d1 < g.m; d1 += 3 {
				for d2 := d1; d2 < g.m; d2 += 3 {
					specs = append(specs, PairSpec(g.m, g.nc, d1, d2).WithPolicy(priority, mapping))
				}
			}
		}
	}
	for _, g := range []struct{ m, s, nc int }{{8, 2, 2}, {12, 3, 3}} {
		for d1 := 0; d1 < g.m; d1 += 3 {
			for d2 := d1; d2 < g.m; d2 += 3 {
				specs = append(specs, SectionPairSpec(g.m, g.s, g.nc, d1, d2).WithPolicy(priority, mapping))
			}
		}
	}
	return specs
}

// TestPolicyFamilyNames pins the family-naming scheme: the default
// policy keeps the bare historical names (golden/bench/served bytes
// depend on them) and every non-default combo gets a distinct suffix.
func TestPolicyFamilyNames(t *testing.T) {
	cases := []struct {
		spec ConfigSpec
		want string
	}{
		{PairSpec(12, 3, 1, 1), "pair"},
		{SectionPairSpec(12, 3, 3, 1, 1), "section"},
		{SectionPairSpec(12, 3, 3, 1, 1).WithPolicy(memsys.FixedPriority, memsys.ConsecutiveSections), "section-consec"},
		{PairSpec(12, 3, 1, 1).WithPolicy(memsys.CyclicPriority, memsys.CyclicSections), "pair-cyc"},
		{PairSpec(12, 3, 1, 1).WithPolicy(memsys.RoundRobinPerCPU, memsys.CyclicSections), "pair-rrcpu"},
		{SectionPairSpec(12, 3, 3, 1, 1).WithPolicy(memsys.CyclicPriority, memsys.ConsecutiveSections), "section-consec-cyc"},
		{SectionPairSpec(12, 3, 3, 1, 1).WithPolicy(memsys.RoundRobinPerCPU, memsys.ConsecutiveSections), "section-consec-rrcpu"},
		{TripleSpec(12, 3, [3]int{1, 2, 3}).WithPolicy(memsys.CyclicPriority, memsys.CyclicSections), "triple-cyc"},
	}
	seen := map[string]ConfigSpec{}
	for _, tc := range cases {
		got := tc.spec.Family()
		if got != tc.want {
			t.Fatalf("Family() = %q, want %q", got, tc.want)
		}
		if prev, dup := seen[got]; dup {
			t.Fatalf("family %q collides: %+v and %+v", got, prev, tc.spec)
		}
		seen[got] = tc.spec
	}
}

// TestDifferentialPolicies is the zero-mismatch campaign gate: for every
// (priority, mapping) combo, the cold sequential sweep and the engine's
// sweep must agree exactly, and so must a cached and a warm pass of the
// engine over every placement one by one (the sweep's class leads do
// not use the cache); the combo's family must see cache traffic only
// under its own name, and rotating-priority families must show a
// nonzero hit rate (their orbits collapse like anyone else's).
func TestDifferentialPolicies(t *testing.T) {
	for _, combo := range policyCombos {
		combo := combo
		t.Run(fmt.Sprintf("%v_%v", combo.priority, combo.mapping), func(t *testing.T) {
			specs := policySpecs(combo.priority, combo.mapping)
			eng := NewEngine(Options{Workers: 4})
			cold := SpecGrid(specs)
			sameRows(t, "cold engine", cold, eng.SpecGrid(specs))
			sameResolves(t, "cached engine", eng, specs)
			// Second pass: same placements, warm cache — still equal.
			firstMetrics := eng.Metrics()
			sameResolves(t, "warm engine", eng, specs)
			warmMetrics := eng.Metrics()
			if warmMetrics.CacheMisses != firstMetrics.CacheMisses {
				t.Fatalf("warm pass simulated %d new orbits",
					warmMetrics.CacheMisses-firstMetrics.CacheMisses)
			}
			// Cache traffic lands only in this combo's families, and every
			// swept family shows a nonzero hit rate (placements share
			// orbits under every arbitration rule).
			for name, fam := range warmMetrics.Families {
				owned := false
				for _, spec := range specs {
					if spec.Family() == name {
						owned = true
						break
					}
				}
				if !owned {
					t.Fatalf("cache traffic leaked into foreign family %q: %+v", name, fam)
				}
				if fam.Hits == 0 {
					t.Fatalf("family %q never hit the cache: %+v", name, fam)
				}
				if fam.Misses == 0 {
					t.Fatalf("family %q never simulated: %+v", name, fam)
				}
			}
		})
	}
}

// TestDifferentialPackedVsScalarPolicies holds the packed-kernel engine
// to the scalar-kernel engine over every policy combo, and requires the
// packed engine to have taken the packed path (non-fixed-priority
// resolves report path sim-packed).
func TestDifferentialPackedVsScalarPolicies(t *testing.T) {
	for _, combo := range policyCombos {
		combo := combo
		t.Run(fmt.Sprintf("%v_%v", combo.priority, combo.mapping), func(t *testing.T) {
			off, on := false, true
			specs := policySpecs(combo.priority, combo.mapping)
			scalar := NewEngine(Options{Workers: 2, PackedKernel: &off})
			packed := NewEngine(Options{Workers: 2, PackedKernel: &on})
			sameRows(t, "packed vs scalar", scalar.SpecGrid(specs), packed.SpecGrid(specs))

			// A single-placement resolve on a fresh packed engine must
			// attribute to sim-packed, proving the packed grant loop
			// answered the non-fixed-priority spec.
			spec := specs[0]
			for i := range spec.Streams {
				spec.Streams[i].Sweep = false
			}
			res, err := NewEngine(Options{Workers: 1, PackedKernel: &on}).Resolve(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Path != PathSimPacked {
				t.Fatalf("packed resolve path %v, want %v", res.Path, PathSimPacked)
			}
		})
	}
}

// TestPolicyProvenanceConservation checks the conservation invariant
// analytic+cache+sim == placements swept per policy family, and that
// the analytic gate never answers a non-fixed-priority spec.
func TestPolicyProvenanceConservation(t *testing.T) {
	for _, combo := range policyCombos {
		combo := combo
		t.Run(fmt.Sprintf("%v_%v", combo.priority, combo.mapping), func(t *testing.T) {
			on := true
			eng := NewEngine(Options{Workers: 2, Analytic: &on, Provenance: NewProvenance(64)})
			specs := policySpecs(combo.priority, combo.mapping)
			eng.SpecGrid(specs)
			checkConservation(t, eng, specPlacements(specs))
			snap := eng.Snapshot().Provenance
			for _, name := range snap.FamilyNames() {
				f := snap.Families[name]
				if combo.priority != memsys.FixedPriority && f.Analytic != 0 {
					t.Fatalf("family %q: %d analytic answers under %v; the gate must decline",
						name, f.Analytic, combo.priority)
				}
			}
		})
	}
}

// TestPolicyResolveMatchesColdSim pins Engine.Resolve per policy against
// the cold single-placement simulation, and a translated second resolve
// against the cache.
func TestPolicyResolveMatchesColdSim(t *testing.T) {
	for _, combo := range policyCombos {
		combo := combo
		t.Run(fmt.Sprintf("%v_%v", combo.priority, combo.mapping), func(t *testing.T) {
			eng := NewEngine(Options{Workers: 1})
			spec := SectionPairSpec(12, 3, 2, 1, 5).WithPolicy(combo.priority, combo.mapping)
			spec.Streams[1].Sweep = false
			spec.Streams[1].B = 2
			cold := simulateSpecVec(spec, []int{1, 5, 0, 2})
			first, err := eng.Resolve(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !first.BW.Equal(cold) {
				t.Fatalf("resolve b_eff %s, cold %s", first.BW, cold)
			}
			if first.Family != spec.Family() {
				t.Fatalf("resolve family %q, want %q", first.Family, spec.Family())
			}

			// Translate both starts by the mapping's translation step:
			// same orbit, so the second resolve must hit the cache.
			step := 3 // cyclic mapping: translations by multiples of s
			if combo.mapping == memsys.ConsecutiveSections {
				step = 4 // consecutive: by the section width m/s
			}
			shifted := SectionPairSpec(12, 3, 2, 1, 5).WithPolicy(combo.priority, combo.mapping)
			shifted.Streams[0].B = step
			shifted.Streams[1].Sweep = false
			shifted.Streams[1].B = 2 + step
			second, err := eng.Resolve(shifted)
			if err != nil {
				t.Fatal(err)
			}
			if second.Path != PathCache {
				t.Fatalf("translated resolve path %v, want cache", second.Path)
			}
			if !second.BW.Equal(cold) {
				t.Fatalf("translated resolve b_eff %s, cold %s", second.BW, cold)
			}
		})
	}
}
