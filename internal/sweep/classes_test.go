package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/modmath"
)

// scaled returns spec with every distance multiplied by u mod m.
func scaled(spec ConfigSpec, u int) ConfigSpec {
	spec.Streams = append([]Stream(nil), spec.Streams...)
	for i := range spec.Streams {
		spec.Streams[i].D = modmath.Mod(u*spec.Streams[i].D, spec.M)
	}
	return spec
}

// classSpecs is a spec list whose classes cover every grouping rule:
// multi-member triple and 4-stream classes, sectioned 3-stream specs,
// consecutive-mapping and cyclic-priority specs, duplicates, a spec
// that differs from an earlier one only in which streams are swept,
// and a fixed-start census spec at distances 3·(1, 1, 4) mod 7, whose
// starts (0, 1, 2) a unit would move: it must not join the class of
// the census spec at (1, 1, 4), whose b_eff (2) is not its own (9/4).
func classSpecs() []ConfigSpec {
	var specs []ConfigSpec
	specs = append(specs, tripleSpecs(7, 2)...)
	specs = append(specs, nStreamSpecs(5, 2, 4)...)
	sec := ConfigSpec{M: 12, S: 3, NC: 3, Streams: []Stream{
		{D: 1, CPU: 0}, {D: 2, CPU: 0, Sweep: true}, {D: 4, CPU: 1, Sweep: true},
	}}
	consec := SectionPairSpec(12, 3, 3, 1, 5).WithPolicy(memsys.FixedPriority, memsys.ConsecutiveSections)
	cyc := TripleSpec(7, 2, [3]int{1, 2, 4}).WithPolicy(memsys.CyclicPriority, memsys.CyclicSections)
	for _, u := range []int{1, 5, 7, 11} {
		specs = append(specs, scaled(sec, u), scaled(consec, u))
	}
	specs = append(specs, cyc, scaled(cyc, 3), scaled(cyc, 2))
	fewer := NStreamSpec(5, 2, []int{1, 2, 3, 4})
	fewer.Streams[3].Sweep = false
	specs = append(specs, fewer, NStreamSpec(5, 2, []int{2, 4, 1, 3}))
	specs = append(specs, TripleSpec(7, 2, [3]int{1, 2, 4}), PairSpec(7, 2, 1, 3), PairSpec(7, 2, 1, 3))
	census := TripleCensusSpec(7, 2, [3]int{1, 1, 4}, [3]int{0, 1, 2})
	return append(specs, census, scaled(census, 3))
}

// The engine folds each class of unit-isomorphic specs once and copies
// the result to the class's other specs; its rows must still be the
// cold oracle's, byte for byte, at any worker count.
func TestSpecGridClassesMatchCold(t *testing.T) {
	specs := classSpecs()
	cold := SpecGrid(specs)
	want := SpecTable(cold[:len(tripleSpecs(7, 2))])
	for _, workers := range []int{1, 2} {
		eng := NewEngine(Options{Workers: workers})
		got := eng.SpecGrid(specs)
		for i := range specs {
			if g, c := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", cold[i]); g != c {
				t.Fatalf("workers %d, spec %d %+v:\nengine %s\ncold   %s", workers, i, specs[i], g, c)
			}
		}
		if SpecTable(got[:len(tripleSpecs(7, 2))]) != want {
			t.Fatalf("workers %d: triple table differs", workers)
		}
		if m := eng.Metrics(); m.PairsSwept != int64(len(specs)) {
			t.Errorf("workers %d: %d sweep units for %d specs", workers, m.PairsSwept, len(specs))
		}
	}

	lead := NewEngine(Options{}).specClasses(specs)
	leaders, members := 0, map[string]int{}
	for i, j := range lead {
		if j < 0 || i == j {
			leaders++
		} else {
			members[specs[i].Family()]++
		}
	}
	for _, fam := range []string{"triple", "stream4", "section3", "triple-cyc", "pair"} {
		if members[fam] == 0 {
			t.Errorf("no %s spec joined an earlier spec's class: %v", fam, members)
		}
	}
	if n := len(specs); lead[n-1] != -1 {
		t.Errorf("fixed-start census spec joined the class of spec %d", lead[n-1])
	}
	t.Logf("%d specs in %d classes", len(specs), leaders)

	// Each rule that makes a spec its own class.
	for name, opt := range map[string]Options{
		"no cache":   {CacheSize: -1},
		"provenance": {Provenance: NewProvenance(0)},
	} {
		for i, j := range NewEngine(opt).specClasses(specs) {
			if j != -1 {
				t.Fatalf("%s: spec %d joined the class of spec %d", name, i, j)
			}
		}
	}
	gated := []ConfigSpec{PairSpec(16, 4, 1, 2), PairSpec(16, 4, 3, 6)} // eq-29 answers both
	if lead := NewEngine(Options{}).specClasses(gated); lead[1] != -1 {
		t.Error("gated pair joined a class")
	}
}

// Folding a class once keeps the results of the per-placement route,
// where every spec resolves each of its placements through the cache,
// and counts exactly the work it does: a class lead simulates each of
// its placements as given (misses, CyclesFound and steps are those of a
// cache-disabled engine over the leads), a later spec of a class counts
// its Starts as hits, and a spec that is a class of its own keeps the
// per-placement route, whose counts it adds on its own. The (13, 4)
// triple grid's hit rate is EXPERIMENTS.md's 69.9 %.
func TestSpecGridClassMetricsMatchPerPlacement(t *testing.T) {
	for _, c := range []struct {
		name  string
		specs []ConfigSpec
		size  int
	}{
		{"triple (13, 4)", tripleSpecs(13, 4), 0},
		{"stream4 (8, 2, 4)", nStreamSpecs(8, 2, 4), 1 << 18},
		{"class list", classSpecs(), 0},
	} {
		folded := NewEngine(Options{Workers: 1, CacheSize: c.size})
		perPlacement := NewEngine(Options{Workers: 1, CacheSize: c.size})
		got := folded.SpecGrid(c.specs)
		if want := sweepSpecs(perPlacement, c.specs, specFold); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: class-folded results differ from the per-placement route", c.name)
		}
		if folded.CacheEvicted() != 0 || perPlacement.CacheEvicted() != 0 {
			t.Fatalf("%s: the cache evicted", c.name)
		}

		lead := folded.specClasses(c.specs)
		var leads, singles []ConfigSpec
		var leadStarts int64
		classed := map[string]FamilyMetrics{} // lead Starts as misses, copies' as hits
		for i, j := range lead {
			fam, n := c.specs[i].Family(), int64(got[i].Starts)
			f := classed[fam]
			switch {
			case j < 0:
				singles = append(singles, c.specs[i])
				continue
			case j == i:
				leads = append(leads, c.specs[i])
				leadStarts += n
				f.Misses += n
			default:
				f.Hits += n
			}
			classed[fam] = f
		}
		asGiven := NewEngine(Options{Workers: 1, CacheSize: -1})
		sweepSpecs(asGiven, leads, specFold)
		cached := NewEngine(Options{Workers: 1, CacheSize: c.size})
		sweepSpecs(cached, singles, specFold)
		lm, want := asGiven.Metrics(), cached.Metrics()
		if lm.CyclesFound != leadStarts {
			t.Fatalf("%s: the leads' %d placements simulated %d times as given", c.name, leadStarts, lm.CyclesFound)
		}
		want.CyclesFound += lm.CyclesFound
		want.StepsSimulated += lm.StepsSimulated
		want.PairsSwept = int64(len(c.specs))
		if want.Families == nil {
			want.Families = map[string]FamilyMetrics{}
		}
		for fam, add := range classed {
			f := want.Families[fam]
			f.Hits += add.Hits
			f.Misses += add.Misses
			want.Families[fam] = f
			want.CacheHits += add.Hits
			want.CacheMisses += add.Misses
		}
		if g := folded.Metrics(); !reflect.DeepEqual(g, want) {
			t.Errorf("%s: metrics\nfolded %+v\nwant   %+v", c.name, g, want)
		}
		t.Logf("%s: %d leads, %d copies, %d singletons", c.name, len(leads), len(c.specs)-len(leads)-len(singles), len(singles))
	}
	eng := NewEngine(Options{Workers: 1})
	eng.TripleGrid(13, 4)
	if got := fmt.Sprintf("%.1f%%", 100*eng.Metrics().HitRate()); got != "69.9%" {
		t.Errorf("(13, 4) triple hit rate %s, EXPERIMENTS.md says 69.9%%", got)
	}
}
