// Package sweep is the experiment harness tying the analytic model and
// the simulator together: it sweeps parameter grids, compares the
// predicted conflict regime and bandwidth of every stream pair against
// the cyclic steady state the simulator finds, and renders the result
// tables that EXPERIMENTS.md and cmd/ivmsweep report.
package sweep

import (
	"ivm/internal/core"
	"ivm/internal/rat"
	"ivm/internal/stream"
	"ivm/internal/textplot"
)

// PairResult compares analysis and simulation for one distance pair.
type PairResult struct {
	M, NC, D1, D2 int
	Analysis      core.Analysis
	// SimMin/SimMax are the extreme cyclic-state bandwidths over the
	// swept relative starting positions.
	SimMin, SimMax rat.Rational
	// Starts is how many relative starts were simulated.
	Starts int
	// Agree reports that the simulation confirms the analysis:
	//   - start-independent predictions must match at every start,
	//   - start-dependent ones must be attained by some start,
	//   - self-conflict pairs are skipped (no pair prediction).
	Agree bool
}

// pairFold is the Theorem 2–7 fold of a two-stream spec: stream 2
// swept over all m starts against stream 1's fixed start, every cyclic
// state checked against core.Analyze's verdict.
func pairFold(spec ConfigSpec, bw func(b []int) rat.Rational) PairResult {
	m, nc := spec.M, spec.NC
	d1, d2 := spec.Streams[0].D, spec.Streams[1].D
	a := core.Analyze(m, nc, d1, d2)
	res := PairResult{M: m, NC: nc, D1: d1, D2: d2, Analysis: a}
	first := true
	attained := false
	allMatch := true
	b := []int{spec.Streams[0].B, 0}
	for b2 := 0; b2 < m; b2++ {
		b[1] = b2
		v := bw(b)
		if first || v.Cmp(res.SimMin) < 0 {
			res.SimMin = v
		}
		if first || v.Cmp(res.SimMax) > 0 {
			res.SimMax = v
		}
		first = false
		res.Starts++
		if a.HasBandwidth {
			if v.Equal(a.Bandwidth) {
				attained = true
			} else {
				allMatch = false
			}
		}
	}
	switch {
	case !a.HasBandwidth:
		res.Agree = true // nothing to check (self-conflict / conflicting)
	case a.StartIndependent:
		res.Agree = allMatch
	case a.Regime == core.RegimeDisjointFree:
		// The constructed starts realise b_eff = 2; the sweep with
		// b1 = 0 contains them (b2 = 1 works whenever gcd > 1).
		res.Agree = attained
	default:
		res.Agree = attained
	}
	return res
}

// gridPairs lists the distance pairs Grid sweeps, in sweep order: both
// streams must have return number >= nc (no self-conflict), d2 >= d1.
func gridPairs(m, nc int) [][2]int {
	var out [][2]int
	for d1 := 0; d1 < m; d1++ {
		if stream.ReturnNumber(m, d1) < nc {
			continue
		}
		for d2 := d1; d2 < m; d2++ {
			if stream.ReturnNumber(m, d2) < nc {
				continue
			}
			out = append(out, [2]int{d1, d2})
		}
	}
	return out
}

// Grid sweeps every distance pair of an (m, nc) system, skipping
// self-conflicting pairs, and returns the per-pair comparisons. This
// is the cold oracle path; Engine.Grid produces byte-identical results
// in parallel.
func Grid(m, nc int) []PairResult { return coldSpecs(GridSpecs(m, 0, nc), pairFold) }

// Summary aggregates a grid sweep.
type Summary struct {
	M, NC    int
	Pairs    int
	ByRegime map[core.Regime]int
	Disagree []PairResult
	// UnpredictedUniform counts pairs whose simulated bandwidth is the
	// same from every relative start although the analysis could not
	// certify start-independence — a measure of how one-sided the
	// paper's sufficient conditions are (e.g. 1(+)11 on the X-MP).
	UnpredictedUniform int
}

// Summarise builds the aggregate view of a grid.
func Summarise(m, nc int, results []PairResult) Summary {
	s := Summary{M: m, NC: nc, Pairs: len(results), ByRegime: make(map[core.Regime]int)}
	for _, r := range results {
		s.ByRegime[r.Analysis.Regime]++
		if !r.Agree {
			s.Disagree = append(s.Disagree, r)
		}
		if !r.Analysis.StartIndependent && r.Starts > 1 && r.SimMin.Equal(r.SimMax) {
			s.UnpredictedUniform++
		}
	}
	return s
}

// Table renders a grid sweep as an aligned text table.
func Table(results []PairResult) string {
	t := &textplot.Table{Header: []string{"d1", "d2", "regime", "predicted", "sim min", "sim max", "agree"}}
	for _, r := range results {
		pred := "-"
		if r.Analysis.HasBandwidth {
			pred = r.Analysis.Bandwidth.String()
			if !r.Analysis.StartIndependent {
				pred += " (some start)"
			}
		}
		t.Add(r.D1, r.D2, r.Analysis.Regime.String(), pred, r.SimMin.String(), r.SimMax.String(), r.Agree)
	}
	return t.String()
}

// SummaryTable renders regime counts of a summary.
func SummaryTable(s Summary) string {
	t := &textplot.Table{Header: []string{"regime", "pairs"}}
	for _, reg := range []core.Regime{
		core.RegimeConflictFree, core.RegimeDisjointFree, core.RegimeUniqueBarrier,
		core.RegimeBarrierPossible, core.RegimeConflicting, core.RegimeSelfConflict,
	} {
		if n := s.ByRegime[reg]; n > 0 {
			t.Add(reg.String(), n)
		}
	}
	t.Add("total", s.Pairs)
	t.Add("disagreements", len(s.Disagree))
	t.Add("uniform beyond prediction", s.UnpredictedUniform)
	return t.String()
}
