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
	consec := ConsecSectionPairSpec(12, 3, 3, 1, 5)
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
		if i == j {
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
	if n := len(specs); lead[n-1] != n-1 {
		t.Errorf("fixed-start census spec joined the class of spec %d", lead[n-1])
	}
	t.Logf("%d specs in %d classes", len(specs), leaders)

	// Each rule that makes a spec its own class.
	for name, opt := range map[string]Options{
		"no cache":   {CacheSize: -1},
		"provenance": {Provenance: NewProvenance(0)},
	} {
		for i, j := range NewEngine(opt).specClasses(specs) {
			if i != j {
				t.Fatalf("%s: spec %d joined the class of spec %d", name, i, j)
			}
		}
	}
	gated := []ConfigSpec{PairSpec(16, 4, 1, 2), PairSpec(16, 4, 3, 6)} // eq-29 answers both
	if lead := NewEngine(Options{}).specClasses(gated); lead[1] != 1 {
		t.Error("gated pair joined a class")
	}
}

// Folding a class once must not change what the engine counts: with
// one worker and a cache that never evicts, Metrics equal the
// per-placement route's, where every spec resolves each of its
// placements, the class's later specs all from the cache. The (13, 4)
// triple grid's hit rate is EXPERIMENTS.md's 70.1 %.
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
		want := sweepSpecs(perPlacement, c.specs, specFold)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: class-folded results differ from the per-placement route", c.name)
		}
		if folded.CacheEvicted() != 0 || perPlacement.CacheEvicted() != 0 {
			t.Fatalf("%s: the cache evicted", c.name)
		}
		if g, w := folded.Metrics(), perPlacement.Metrics(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: metrics\nfolded        %+v\nper placement %+v", c.name, g, w)
		}
	}
	eng := NewEngine(Options{Workers: 1})
	eng.TripleGrid(13, 4)
	if got := fmt.Sprintf("%.1f%%", 100*eng.Metrics().HitRate()); got != "70.1%" {
		t.Errorf("(13, 4) triple hit rate %s, EXPERIMENTS.md says 70.1%%", got)
	}
}
