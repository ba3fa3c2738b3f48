package sweep

import (
	"strings"
	"testing"

	"ivm/internal/core"
	"ivm/internal/rat"
)

// coldPair folds one pair spec on the cold oracle route.
func coldPair(m, nc, d1, d2 int) PairResult {
	return coldSpecs([]ConfigSpec{PairSpec(m, nc, d1, d2)}, pairFold)[0]
}

func TestSweepPairFig2(t *testing.T) {
	r := coldPair(12, 3, 1, 7)
	if r.Analysis.Regime != core.RegimeConflictFree {
		t.Fatalf("regime = %s", r.Analysis.Regime)
	}
	if !r.Agree {
		t.Fatal("Fig. 2 pair must agree")
	}
	if !r.SimMin.Equal(rat.New(2, 1)) || !r.SimMax.Equal(rat.New(2, 1)) {
		t.Fatalf("sim range [%s, %s]", r.SimMin, r.SimMax)
	}
	if r.Starts != 12 {
		t.Fatalf("starts = %d", r.Starts)
	}
}

func TestSweepPairBarrier(t *testing.T) {
	r := coldPair(16, 2, 1, 2)
	if r.Analysis.Regime != core.RegimeUniqueBarrier {
		t.Fatalf("regime = %s", r.Analysis.Regime)
	}
	if !r.Agree {
		t.Fatal("unique barrier must agree at every start")
	}
	if !r.SimMin.Equal(rat.New(3, 2)) || !r.SimMax.Equal(rat.New(3, 2)) {
		t.Fatalf("sim range [%s, %s]", r.SimMin, r.SimMax)
	}
}

// The whole analytic model agrees with the simulator over full grids.
// This is the repo's strongest single check: every closed form of the
// paper, against every start, at several (m, n_c).
func TestGridsAgree(t *testing.T) {
	for _, g := range []struct{ m, nc int }{{8, 2}, {12, 3}, {13, 4}, {16, 4}} {
		results := Grid(g.m, g.nc)
		s := Summarise(g.m, g.nc, results)
		if len(s.Disagree) != 0 {
			for _, d := range s.Disagree {
				t.Errorf("m=%d nc=%d d1=%d d2=%d: %s predicted %s, sim [%s, %s]",
					d.M, d.NC, d.D1, d.D2, d.Analysis.Regime, d.Analysis.Bandwidth, d.SimMin, d.SimMax)
			}
			t.Fatalf("m=%d nc=%d: %d disagreements", g.m, g.nc, len(s.Disagree))
		}
		if s.Pairs == 0 {
			t.Fatalf("m=%d nc=%d: empty grid", g.m, g.nc)
		}
	}
}

func TestTableRendering(t *testing.T) {
	results := Grid(8, 2)
	tbl := Table(results)
	if !strings.Contains(tbl, "regime") || !strings.Contains(tbl, "conflict-free") {
		t.Fatalf("table:\n%s", tbl)
	}
	lines := strings.Split(strings.TrimRight(tbl, "\n"), "\n")
	if len(lines) != len(results)+2 {
		t.Fatalf("%d lines for %d results", len(lines), len(results))
	}
	s := Summarise(8, 2, results)
	st := SummaryTable(s)
	if !strings.Contains(st, "total") || !strings.Contains(st, "disagreements") {
		t.Fatalf("summary:\n%s", st)
	}
}

// The sufficient conditions are one-sided: on the X-MP grid some pairs
// are empirically start-independent without a theorem certifying it
// (1(+)11 is the worked example), and the counter reports them.
func TestUnpredictedUniformCounted(t *testing.T) {
	results := Grid(16, 4)
	s := Summarise(16, 4, results)
	if s.UnpredictedUniform == 0 {
		t.Fatal("expected some empirically uniform pairs beyond the predictions")
	}
	found := false
	for _, r := range results {
		if r.D1 == 1 && r.D2 == 11 {
			if !r.SimMin.Equal(r.SimMax) {
				t.Fatalf("1(+)11 not uniform: [%s, %s]", r.SimMin, r.SimMax)
			}
			if r.Analysis.StartIndependent {
				t.Fatal("1(+)11 should not be certified start-independent")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("1(+)11 missing from the grid")
	}
}
