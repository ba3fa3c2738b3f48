package sweep

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden byte-identity record. The files under testdata/ were captured
// from the pre-ConfigSpec implementation (the three hand-written
// pair/triple/section sweep families); these tests hold the generic
// spec-driven engine to byte-identical rendered output, so any drift
// in simulation order, placement enumeration, canonicalisation or
// table rendering fails loudly. Regenerate (only after an intentional
// output change) with
//
//	go test ./internal/sweep -run TestGolden -update
//
// and review the diff before committing.
var updateGolden = flag.Bool("update", false, "rewrite the sweep golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from the pre-refactor golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// census82 is the golden fixed-placement triple census: (8, 2) at the
// standard starts (0, 1, 2).
var census82 = TripleCensusSpecs(8, 2, [3]int{0, 1, 2})

// censusText renders a fixed-placement triple census in a stable
// format owned by this test (the census has no table renderer). Each
// census row is one placement, so SimMin is its bandwidth and BoundMin
// its capacity bound.
func censusText(results []SpecResult) string {
	var b strings.Builder
	for _, r := range results {
		st := r.Spec.Streams
		fmt.Fprintf(&b, "(%d,%d,%d) bw=%s bound=%s tight=%v\n",
			st[0].D, st[1].D, st[2].D, r.SimMin, r.BoundMin, r.TightStarts == 1)
	}
	return b.String()
}

// The sequential reference paths must keep producing the exact tables
// the three pre-refactor sweep families produced.
func TestGoldenSequentialSweeps(t *testing.T) {
	checkGolden(t, "pair_grid_12_3.golden", Table(Grid(12, 3)))
	checkGolden(t, "pair_grid_16_4.golden", Table(Grid(16, 4)))
	checkGolden(t, "triple_grid_6_2.golden", TripleGridTable(TripleGrid(6, 2)))
	checkGolden(t, "triple_census_8_2.golden", censusText(SpecGrid(census82)))
	checkGolden(t, "section_grid_12_3_3.golden", SectionTable(SectionGrid(12, 3, 3)))
	checkGolden(t, "section_grid_16_4_4.golden", SectionTable(SectionGrid(16, 4, 4)))
	checkGolden(t, "nstream_grid_4_2_4.golden", SpecTable(NStreamGrid(4, 2, 4)))
}

// The parallel, cached engine must reproduce the same goldens through
// the generic path, for several worker/cache configurations.
func TestGoldenEngineSweeps(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are captured from the sequential reference path")
	}
	for _, opt := range []Options{
		{Workers: 1, CacheSize: -1},
		{Workers: 4},
	} {
		eng := NewEngine(opt)
		checkGolden(t, "pair_grid_12_3.golden", Table(eng.Grid(12, 3)))
		checkGolden(t, "pair_grid_16_4.golden", Table(eng.Grid(16, 4)))
		checkGolden(t, "triple_grid_6_2.golden", TripleGridTable(eng.TripleGrid(6, 2)))
		checkGolden(t, "triple_census_8_2.golden", censusText(eng.SpecGrid(census82)))
		checkGolden(t, "section_grid_12_3_3.golden", SectionTable(eng.SectionGrid(12, 3, 3)))
		checkGolden(t, "section_grid_16_4_4.golden", SectionTable(eng.SectionGrid(16, 4, 4)))
		checkGolden(t, "nstream_grid_4_2_4.golden", SpecTable(eng.NStreamGrid(4, 2, 4)))
	}
}

// TestGoldenFastPathOnOff is the regression pin for the two speed
// paths: every golden — pair, triple, section and N-stream — must be
// byte-identical with the analytic gate and the packed kernel toggled
// through all four combinations. Simulation is authoritative; neither
// fast path may change a single output byte.
func TestGoldenFastPathOnOff(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are captured from the sequential reference path")
	}
	on, off := true, false
	for _, tc := range []struct {
		name              string
		analytic, kernelP *bool
	}{
		{"analytic_on_packed_on", &on, &on},
		{"analytic_on_packed_off", &on, &off},
		{"analytic_off_packed_on", &off, &on},
		{"analytic_off_packed_off", &off, &off},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(Options{Workers: 4, Analytic: tc.analytic, PackedKernel: tc.kernelP})
			checkGolden(t, "pair_grid_12_3.golden", Table(eng.Grid(12, 3)))
			checkGolden(t, "pair_grid_16_4.golden", Table(eng.Grid(16, 4)))
			checkGolden(t, "triple_grid_6_2.golden", TripleGridTable(eng.TripleGrid(6, 2)))
			checkGolden(t, "triple_census_8_2.golden", censusText(eng.SpecGrid(census82)))
			checkGolden(t, "section_grid_12_3_3.golden", SectionTable(eng.SectionGrid(12, 3, 3)))
			checkGolden(t, "section_grid_16_4_4.golden", SectionTable(eng.SectionGrid(16, 4, 4)))
			checkGolden(t, "nstream_grid_4_2_4.golden", SpecTable(eng.NStreamGrid(4, 2, 4)))
		})
	}
}
