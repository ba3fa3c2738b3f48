package sweep

import (
	"fmt"

	"ivm/internal/rat"
	"ivm/internal/textplot"
)

// Three-stream sweeps. The paper analyses one and two streams; these
// sweeps quantify how far its pairwise reasoning carries for three by
// measuring every distance triple against the aggregate capacity
// bounds of core.CapacityBound. Both granularities are spec lists
// folded by specFold:
//
//   - the census (SpecGrid over TripleCensusSpecs): one fixed placement
//     per triple — cheap, the historical Fig. 8–10 regime scan;
//   - the start sweep (TripleGrid): all m^2 relative placements
//     (b1 = 0, b2, b3 in [0, m)) per triple, the exact three-stream
//     analogue of the pair sweep's all-starts loop. This is the path the
//     isomorphism-canonical cache accelerates: (d1, d2, d3, b2, b3) is
//     canonicalised under the unit group of Z_m, so only one placement
//     per orbit is ever simulated (docs/CACHING.md).

// tripleList enumerates the unordered distance triples in sweep order.
func tripleList(m int) [][3]int {
	var out [][3]int
	for d1 := 0; d1 < m; d1++ {
		for d2 := d1; d2 < m; d2++ {
			for d3 := d2; d3 < m; d3++ {
				out = append(out, [3]int{d1, d2, d3})
			}
		}
	}
	return out
}

// tripleSpecs lists TripleGrid's all-placements specs in sweep order.
func tripleSpecs(m, nc int) []ConfigSpec {
	triples := tripleList(m)
	specs := make([]ConfigSpec, len(triples))
	for i, d := range triples {
		specs[i] = TripleSpec(m, nc, d)
	}
	return specs
}

// TripleCensusSpecs lists the fixed-placement triple census of an
// (m, n_c) memory at start placement b: every unordered distance
// triple, in sweep order, with the three starts held at b. SpecGrid
// over the list is the census — each SpecResult has one start, its
// bandwidth in SimMin = SimMax and its capacity bound in BoundMin =
// BoundMax. A census at translated starts (t, 1+t, 2+t) shares the
// cache keys of the standard (0, 1, 2) census.
func TripleCensusSpecs(m, nc int, b [3]int) []ConfigSpec {
	triples := tripleList(m)
	specs := make([]ConfigSpec, len(triples))
	for i, d := range triples {
		specs[i] = TripleCensusSpec(m, nc, d, b)
	}
	return specs
}

// TripleSweepResult compares the per-placement capacity bounds of one
// distance triple with the simulated cyclic states over all m^2
// relative placements (b1 = 0; b2, b3 sweep [0, m)) — the three-stream
// analogue of PairResult, and a field copy of the triple's SpecResult.
type TripleSweepResult struct {
	M, NC int
	D     [3]int
	// SimMin/SimMax are the extreme cyclic-state bandwidths over the
	// swept placements.
	SimMin, SimMax rat.Rational
	// BoundMin/BoundMax are the extreme per-placement capacity bounds;
	// they differ when the streams' access-set union depends on the
	// starts (degenerate distances).
	BoundMin, BoundMax rat.Rational
	// Starts is how many placements were simulated (m^2).
	Starts int
	// TightStarts counts placements whose simulated bandwidth attains
	// their capacity bound exactly.
	TightStarts int
	// Violations counts placements whose simulated bandwidth exceeds
	// their capacity bound — always zero unless the simulator or the
	// bound is wrong.
	Violations int
}

// tripleResults copies three-stream SpecResults into the
// TripleSweepResult rows the triple tables render.
func tripleResults(rs []SpecResult) []TripleSweepResult {
	out := make([]TripleSweepResult, len(rs))
	for i, r := range rs {
		st := r.Spec.Streams
		out[i] = TripleSweepResult{
			M: r.Spec.M, NC: r.Spec.NC, D: [3]int{st[0].D, st[1].D, st[2].D},
			SimMin: r.SimMin, SimMax: r.SimMax, BoundMin: r.BoundMin, BoundMax: r.BoundMax,
			Starts: r.Starts, TightStarts: r.TightStarts, Violations: r.Violations,
		}
	}
	return out
}

// TripleGrid sweeps every unordered distance triple of an (m, n_c)
// memory over all relative placements, comparing each cyclic state
// against its capacity bound. Cold oracle path; Engine.TripleGrid
// produces byte-identical results in parallel, with the cyclic-state
// cache collapsing isomorphic placements.
func TripleGrid(m, nc int) []TripleSweepResult {
	return tripleResults(coldSpecs(tripleSpecs(m, nc), specFold))
}

// TripleGridSummary aggregates an all-placements triple sweep.
type TripleGridSummary struct {
	M, NC   int
	Triples int
	Starts  int // placements simulated across all triples
	// TightSomewhere counts triples attaining their capacity bound from
	// at least one placement; TightStarts counts the attaining
	// placements themselves.
	TightSomewhere int
	TightStarts    int
	// Violations counts placements whose simulated bandwidth exceeded
	// the capacity bound — must be zero.
	Violations int
}

// SummariseTripleGrid reduces an all-placements triple sweep.
func SummariseTripleGrid(m, nc int, results []TripleSweepResult) TripleGridSummary {
	s := TripleGridSummary{M: m, NC: nc, Triples: len(results)}
	for _, r := range results {
		s.Starts += r.Starts
		s.TightStarts += r.TightStarts
		s.Violations += r.Violations
		if r.TightStarts > 0 {
			s.TightSomewhere++
		}
	}
	return s
}

// TripleGridTable renders an all-placements triple sweep as an aligned
// text table.
func TripleGridTable(results []TripleSweepResult) string {
	t := &textplot.Table{Header: []string{"d1", "d2", "d3", "bound", "sim min", "sim max", "tight"}}
	for _, r := range results {
		bound := r.BoundMax.String()
		if !r.BoundMin.Equal(r.BoundMax) {
			bound = r.BoundMin.String() + ".." + r.BoundMax.String()
		}
		t.Add(r.D[0], r.D[1], r.D[2], bound, r.SimMin.String(), r.SimMax.String(),
			fmt.Sprintf("%d/%d", r.TightStarts, r.Starts))
	}
	return t.String()
}
