package obs

// The latency histogram lives in the leaf package internal/obs/latency
// so the sweep engine can own one; these tests pin it as obs renders it
// (bucket bounds, the quantile estimator, the summary line and the
// /metrics.json shape) through its exported API.

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"ivm/internal/obs/latency"
)

// closeTo reports a, b equal within 1e-12 relative tolerance — tight
// enough to pin the estimator against drift while tolerating the
// decimal rendering of binary fractions.
func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-12*scale
}

// TestLatencyHistBuckets pins the log2 bucketing: bucket k holds
// [2^(k-1), 2^k) nanoseconds.
func TestLatencyHistBuckets(t *testing.T) {
	h := new(latency.Hist)
	h.ObserveNS(1023) // bits.Len64 = 10: [512, 1024)
	h.ObserveNS(1024) // bits.Len64 = 11: [1024, 2048)
	h.ObserveNS(-5)   // clamps to 0: bucket 0
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if got := snap.SumSeconds; !closeTo(got, 2047e-9) {
		t.Errorf("sum = %g, want %g", got, 2047e-9)
	}
	wantUppers := []float64{1.0 / 1e9, 1024.0 / 1e9, 2048.0 / 1e9}
	if len(snap.Buckets) != len(wantUppers) {
		t.Fatalf("buckets = %+v, want uppers %v", snap.Buckets, wantUppers)
	}
	for i, b := range snap.Buckets {
		if b.UpperSeconds != wantUppers[i] || b.Count != 1 {
			t.Errorf("bucket %d = {%g, %d}, want {%g, 1}", i, b.UpperSeconds, b.Count, wantUppers[i])
		}
	}
}

// TestLatencyHistQuantileGolden pins the quantile estimator's exact
// values on two fixed observation sets, so any change to the
// interpolation shows up as a diff here before it shows up in a
// dashboard.
func TestLatencyHistQuantileGolden(t *testing.T) {
	// 100 observations of 1000ns: all in bucket [512, 1024), so every
	// quantile interpolates linearly inside that bucket.
	uniform := new(latency.Hist)
	for i := 0; i < 100; i++ {
		uniform.ObserveNS(1000)
	}
	// One observation each at 100ns, 10us, 1ms: the quantiles walk the
	// cumulative counts across three widely separated buckets.
	spread := new(latency.Hist)
	spread.ObserveNS(100)
	spread.ObserveNS(10_000)
	spread.ObserveNS(1_000_000)

	for _, tc := range []struct {
		name          string
		h             *latency.Hist
		p50, p95, p99 float64
	}{
		{"uniform-1us", uniform, 768e-9, 998.4e-9, 1018.88e-9},
		{"spread", spread, 12288e-9, 969932.8e-9, 1032847.36e-9},
	} {
		snap := tc.h.Snapshot()
		if !closeTo(snap.P50, tc.p50) || !closeTo(snap.P95, tc.p95) || !closeTo(snap.P99, tc.p99) {
			t.Errorf("%s: quantiles (%g, %g, %g), want (%g, %g, %g)",
				tc.name, snap.P50, snap.P95, snap.P99, tc.p50, tc.p95, tc.p99)
		}
	}
}

// TestLatencyHistQuantileEdges covers the estimator's boundaries: an
// empty histogram and a single observation, where every quantile's
// rank clamps to that observation.
func TestLatencyHistQuantileEdges(t *testing.T) {
	var nilHist *latency.Hist
	if s := nilHist.Snapshot(); s.P50 != 0 || s.Count != 0 {
		t.Error("nil histogram must report zero quantiles and count")
	}
	nilHist.ObserveNS(5) // must not panic
	nilHist.Observe(time.Second)
	if snap := nilHist.Snapshot(); snap.Count != 0 || snap.Buckets != nil {
		t.Errorf("nil snapshot = %+v, want zero", snap)
	}

	empty := new(latency.Hist)
	if got := empty.Snapshot().P99; got != 0 {
		t.Errorf("empty p99 = %g, want 0", got)
	}

	one := new(latency.Hist)
	one.ObserveNS(700) // bucket [512, 1024), rank clamps to 1
	snap := one.Snapshot()
	if snap.P50 != snap.P99 {
		t.Errorf("single observation: p50 %g != p99 %g", snap.P50, snap.P99)
	}
	if snap.P50 < 512e-9 || snap.P50 > 1024e-9 {
		t.Errorf("single observation quantile %g outside its bucket", snap.P50)
	}
}

// TestLatencyHistSummary checks the human-readable one-liner and the
// snapshot's JSON round trip (the /metrics.json shape).
func TestLatencyHistSummary(t *testing.T) {
	h := new(latency.Hist)
	if got := h.Snapshot().Summary(); got != "n=0 p50=- p95=- p99=- mean=-" {
		t.Errorf("empty summary = %q", got)
	}
	h.Observe(2 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Mean() <= 0 {
		t.Errorf("mean = %g, want > 0", snap.Mean())
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back latency.Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != snap.Count || back.P50 != snap.P50 || len(back.Buckets) != len(snap.Buckets) {
		t.Errorf("JSON round trip drifted: %+v != %+v", back, snap)
	}
}

// TestLatencyHistObserveAllocs pins the hot path at zero allocations:
// the histogram sits on the engine's per-item route.
func TestLatencyHistObserveAllocs(t *testing.T) {
	h := new(latency.Hist)
	if n := testing.AllocsPerRun(200, func() { h.ObserveNS(12345) }); n != 0 {
		t.Errorf("ObserveNS allocates %v times per call, want 0", n)
	}
}
