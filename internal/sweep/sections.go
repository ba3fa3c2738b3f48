package sweep

import (
	"fmt"

	"ivm/internal/core"
	"ivm/internal/rat"
	"ivm/internal/stream"
	"ivm/internal/textplot"
)

// Section-system sweeps: two ports of one CPU against an (m, s, n_c)
// memory, validating the section results (Theorems 8/9, Eq. 31/32)
// exactly as Grid does for the sectionless theorems.

// SectionPairResult compares section-theory predictions and simulation
// for one distance pair.
type SectionPairResult struct {
	M, S, NC, D1, D2 int
	// TheoryFree: SectionConflictFree found a conflict-free start.
	TheoryFree bool
	// TheoryStart is that start offset (meaningful when TheoryFree).
	TheoryStart int
	// SimFreeStarts counts the relative starts whose cyclic state is
	// conflict free; SimStarts is the number swept.
	SimFreeStarts, SimStarts int
	// Agree: every claim that was checkable held (constructed starts
	// simulate to b_eff = 2; per-placement disjoint-set predictions
	// match).
	Agree bool
}

// sectionFold is the Theorem 8/9 fold of a sectioned two-stream spec:
// stream 2 swept over all m starts against stream 1's fixed start, the
// conflict-free placements checked against the section theorems.
func sectionFold(spec ConfigSpec, bw func(b []int) rat.Rational) SectionPairResult {
	m, s, nc := spec.M, spec.S, spec.NC
	d1, d2 := spec.Streams[0].D, spec.Streams[1].D
	res := SectionPairResult{M: m, S: s, NC: nc, D1: d1, D2: d2, Agree: true}
	res.TheoryFree, res.TheoryStart = core.SectionConflictFree(m, s, nc, d1, d2)
	two := rat.New(2, 1)
	s1 := stream.Infinite(m, 0, d1)
	b := []int{spec.Streams[0].B, 0}
	for b2 := 0; b2 < m; b2++ {
		b[1] = b2
		free := bw(b).Equal(two)
		res.SimStarts++
		if free {
			res.SimFreeStarts++
		}
		// Per-placement check where the theory speaks: disjoint access
		// sets (only section conflicts possible).
		s2 := stream.Infinite(m, b2, d2)
		if !stream.Disjoint(s1, s2) || stream.SectionsDisjoint(s1, s2, s) {
			continue
		}
		if want := core.SectionDisjointSteadyFree(s, 0, d1, b2, d2); want != free {
			res.Agree = false
		}
	}
	// The constructed start must simulate conflict free.
	if res.TheoryFree {
		b[1] = res.TheoryStart
		if !bw(b).Equal(two) {
			res.Agree = false
		}
	}
	return res
}

// SectionGrid sweeps every non-self-conflicting pair of an (m, s, n_c)
// system. Cold oracle path; Engine.SectionGrid is the parallel, cached
// equivalent.
func SectionGrid(m, s, nc int) []SectionPairResult {
	return coldSpecs(GridSpecs(m, s, nc), sectionFold)
}

// SectionTable renders a section grid.
func SectionTable(results []SectionPairResult) string {
	t := &textplot.Table{Header: []string{"d1", "d2", "theory free@", "sim free starts", "agree"}}
	for _, r := range results {
		at := "-"
		if r.TheoryFree {
			at = fmt.Sprintf("b2=%d", r.TheoryStart)
		}
		t.Add(r.D1, r.D2, at, fmt.Sprintf("%d/%d", r.SimFreeStarts, r.SimStarts), r.Agree)
	}
	return t.String()
}
