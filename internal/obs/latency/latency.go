// Package latency is the lock-free latency histogram of the
// observability layer: log2-bucketed nanosecond counters kept in
// atomics, so any number of goroutines can Observe while scrapers
// snapshot. One histogram per instrumented surface (ivmserved keeps one
// per endpoint, the sweep engine one for its work items) renders as a
// native Prometheus histogram (_bucket/_sum/_count with le labels, see
// obs.PromMetric.HistSample) and as estimated p50/p95/p99 quantiles in
// the JSON snapshot, ivmreport and /statusz. The quantile estimator is
// deterministic for a fixed observation set and pinned by a golden
// test. The package is a leaf, so internal/sweep can own a histogram
// that internal/obs (which imports sweep) renders.
package latency

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// bucketCount is the number of log2 buckets: bucket k holds durations
// d with 2^(k-1) <= d < 2^k nanoseconds (bucket 0 holds sub-nanosecond
// observations), so 64 buckets cover every int64.
const bucketCount = 64

// Hist is a concurrency-safe log2 latency histogram. The zero value is
// ready to use; all methods are safe for concurrent use and nil-safe
// (a detached nil histogram observes nothing and allocates nothing,
// mirroring the detached tracer).
type Hist struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

// ObserveNS records one latency observation of ns nanoseconds
// (negative observations clamp to zero) with three atomic adds — no
// locks, no allocation.
func (h *Hist) ObserveNS(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) { h.ObserveNS(d.Nanoseconds()) }

// Count returns the number of observations (0 on nil).
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Bucket is one non-empty log2 bucket of a snapshot: the count of
// observations below UpperSeconds but at or above the previous
// bucket's bound.
type Bucket struct {
	UpperSeconds float64 `json:"le"`
	Count        int64   `json:"count"`
}

// Snapshot is one observation of a histogram: totals, the non-empty
// buckets, and the estimated quantiles. It is the JSON shape served
// under /metrics.json and written by -metrics-out.
type Snapshot struct {
	Count      int64    `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets,omitempty"`
	P50        float64  `json:"p50_seconds"`
	P95        float64  `json:"p95_seconds"`
	P99        float64  `json:"p99_seconds"`
}

// bucketUpperNS returns the exclusive upper bound of bucket k in
// nanoseconds (2^k, saturating at MaxInt64 for the last bucket).
func bucketUpperNS(k int) float64 {
	if k >= 63 {
		return float64(math.MaxInt64)
	}
	return float64(int64(1) << k)
}

// Snapshot copies the counters and estimates the quantiles. The copy
// is not atomic across buckets — concurrent Observes may straddle it —
// but every counter read is itself atomic, so the snapshot is always
// internally plausible.
func (h *Hist) Snapshot() Snapshot {
	s := Snapshot{}
	if h == nil {
		return s
	}
	var counts [bucketCount]int64
	for k := range counts {
		counts[k] = h.buckets[k].Load()
	}
	s.SumSeconds = float64(h.sumNS.Load()) / 1e9
	for k, c := range counts {
		if c == 0 {
			continue
		}
		s.Count += c
		s.Buckets = append(s.Buckets, Bucket{UpperSeconds: bucketUpperNS(k) / 1e9, Count: c})
	}
	s.P50 = quantile(counts[:], s.Count, 0.50)
	s.P95 = quantile(counts[:], s.Count, 0.95)
	s.P99 = quantile(counts[:], s.Count, 0.99)
	return s
}

// quantile estimates the p-quantile in seconds from log2 bucket
// counts by linear interpolation inside the covering bucket: the
// estimate is exact for observations on bucket bounds and within a
// factor of two otherwise — the usual histogram-quantile contract.
func quantile(counts []int64, total int64, p float64) float64 {
	if total <= 0 {
		return 0
	}
	rank := p * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for k, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo := 0.0
			if k > 0 {
				lo = bucketUpperNS(k - 1)
			}
			hi := bucketUpperNS(k)
			frac := (rank - prev) / float64(c)
			return (lo + frac*(hi-lo)) / 1e9
		}
	}
	return bucketUpperNS(bucketCount-1) / 1e9
}

// fmtSeconds renders a latency in seconds as a compact duration
// ("1.2ms", "3.4s"), "-" when zero.
func fmtSeconds(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// Summary renders the snapshot's headline numbers on one line.
func (s Snapshot) Summary() string {
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s mean=%s",
		s.Count, fmtSeconds(s.P50), fmtSeconds(s.P95), fmtSeconds(s.P99), fmtSeconds(s.Mean()))
}

// Mean returns the mean observed latency in seconds (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumSeconds / float64(s.Count)
}
