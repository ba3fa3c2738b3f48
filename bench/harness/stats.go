package harness

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail figure resting on fewer is one unlucky sample.
const minBeyond = 10

// Percentile returns the q-quantile (0 < q < 1) of sorted samples by
// linear interpolation, and ok = false when fewer than minBeyond
// samples lie above the interpolation point.
func Percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	below := int(math.Floor(q*float64(n-1) + 1e-9))
	if n-1-below < minBeyond {
		return 0, false
	}
	return quantile(sorted, q), true
}

// quantile linearly interpolates the q-quantile of sorted samples, with no
// sample-count rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Median returns the median of values (which it sorts in place), 0 on
// none.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	return quantile(values, 0.5)
}

// Quartiles returns the first quartile, median and third quartile of
// values (sorted in place) with the exclusive method of Python's
// statistics.quantiles(values, n=4), so benchcmp's spread matches the
// acceptance arithmetic run over the same result files.
func Quartiles(values []float64) (q1, med, q3 float64) {
	sort.Float64s(values)
	n := len(values)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return values[0], values[0], values[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method='exclusive', transcribed.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (values[j-1]*(4-delta) + values[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
