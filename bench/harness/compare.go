package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Comparison is one workload and metric across two sets of result
// files.
type Comparison struct {
	Workload, Metric, Unit string
	Bound                  float64    // 0 for per-layer metrics
	OldQ, NewQ             [3]float64 // first quartile, median, third quartile
	Delta                  float64    // (new - old) / old median
	Wins, Pairs            int        // pairs in which new reads better
	Verdict                string
}

// The verdicts. A metric is unresolved when either side's quartile
// spread exceeds its bound, a regression when the new median is worse
// by more than the bound, and a gain only when the new side also wins
// at least nine pairs in ten and the medians differ by more than the
// old side's quartile spread. Set-up time is judged on its median
// alone: its work follows the seed (serve-single's first pass simulates
// the seed's universe), and the bound on its median is what catches
// work moved into set-up.
const (
	VerdictOK         = "ok"
	VerdictRegression = "regression"
	VerdictUnresolved = "unresolved"
	VerdictGain       = "gain"
)

// Compare pairs the old and new result files (in the given order) and
// compares every metric BENCHMARK.json declares, per workload.
func Compare(spec Spec, old, new []Report) []Comparison {
	type key struct{ workload, metric string }
	collect := func(reports []Report) map[key][]float64 {
		out := make(map[key][]float64)
		for _, rep := range reports {
			for _, r := range rep.Results {
				for name, m := range r.Metrics {
					k := key{r.Workload, name}
					out[k] = append(out[k], m.Value)
				}
			}
		}
		return out
	}
	ov, nv := collect(old), collect(new)
	metrics := append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	var out []Comparison
	for _, w := range spec.Workloads {
		for _, m := range metrics {
			k := key{w.Name, m.Name}
			o, n := ov[k], nv[k]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			out = append(out, compareOne(w.Name, m, o, n))
		}
	}
	return out
}

func compareOne(workload string, m MetricSpec, o, n []float64) Comparison {
	c := Comparison{Workload: workload, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(o), len(n))
	for i := 0; i < c.Pairs; i++ {
		if better(n[i], o[i]) {
			c.Wins++
		}
	}
	c.OldQ[0], c.OldQ[1], c.OldQ[2] = Quartiles(append([]float64(nil), o...))
	c.NewQ[0], c.NewQ[1], c.NewQ[2] = Quartiles(append([]float64(nil), n...))
	if c.OldQ[1] != 0 {
		c.Delta = (c.NewQ[1] - c.OldQ[1]) / math.Abs(c.OldQ[1])
	}
	if m.Bound == 0 {
		return c
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	worse := c.Delta
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		c.Verdict = VerdictRegression
	case m.Name != "setup_s" && (spread(c.OldQ) > m.Bound || spread(c.NewQ) > m.Bound):
		c.Verdict = VerdictUnresolved
	case 10*c.Wins >= 9*c.Pairs && math.Abs(c.NewQ[1]-c.OldQ[1]) > c.OldQ[2]-c.OldQ[0] && better(c.NewQ[1], c.OldQ[1]):
		c.Verdict = VerdictGain
	default:
		c.Verdict = VerdictOK
	}
	return c
}

// WriteComparisons prints one row per workload and metric.
func WriteComparisons(w io.Writer, cs []Comparison) {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Workload < cs[j].Workload })
	fmt.Fprintf(w, "%-13s %-24s %-34s %-34s %8s %6s %6s %s\n",
		"workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "delta", "bound", "wins", "verdict")
	q := func(v [3]float64) string { return fmt.Sprintf("%.5g [%.5g %.5g]", v[1], v[0], v[2]) }
	for _, c := range cs {
		bound := "-"
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*c.Bound)
		}
		fmt.Fprintf(w, "%-13s %-24s %-34s %-34s %+7.2f%% %6s %6s %s\n",
			c.Workload, c.Metric+" ("+c.Unit+")", q(c.OldQ), q(c.NewQ), 100*c.Delta, bound,
			fmt.Sprintf("%d/%d", c.Wins, c.Pairs), c.Verdict)
	}
}
