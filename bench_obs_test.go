package ivm

// Request-observability benchmarks: the cost the tracing and latency
// instrumentation adds to the hot resolve path. Two numbers matter —
// recording one observation into the lock-free log2 histogram, and
// the detached span path (the nil-sink checks every resolve pays when
// no request trace is attached). Both must stay allocation-free; each
// benchmark fails outright if its path allocates. scripts/bench.sh
// distils these into the "request_observability" block of
// BENCH_sweep.json; the timings are context-only (sub-ns scale, too
// noisy for the benchdiff gate), the zero allocs/op are the contract.

import (
	"testing"

	"ivm/internal/obs/latency"
	"ivm/internal/sweep"
)

// BenchmarkLatencyHist measures recording one observation into the
// lock-free histogram — the cost every sweep work item and every HTTP
// request to ivmserved pays.
func BenchmarkLatencyHist(b *testing.B) {
	h := new(latency.Hist)
	if n := testing.AllocsPerRun(100, func() { h.ObserveNS(4096) }); n != 0 {
		b.Fatalf("ObserveNS allocates %v per op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveNS(int64(i%1_000_000) + 1)
	}
	b.StopTimer()
	if got := h.Count(); got < int64(b.N) {
		b.Fatalf("histogram lost observations: %d < %d", got, b.N)
	}
}

// benchSink lives at package scope so the compiler cannot prove it
// nil and delete the guard BenchmarkDetachedSpan exists to measure.
var benchSink sweep.SpanSink

// BenchmarkDetachedSpan measures the detached span path: the engine's
// per-phase cost when no TraceContext rides the request — a nil-sink
// check and nothing else, mirroring the guards of the answer route's
// phase timer (phaseTimer in internal/sweep). internal/sweep's
// TestDetachedResolveAllocs guards the whole detached route.
func BenchmarkDetachedSpan(b *testing.B) {
	detached := func() {
		if benchSink != nil {
			s := benchSink.Start()
			benchSink.Span(sweep.SpanSimulate, s)
		}
	}
	if n := testing.AllocsPerRun(100, detached); n != 0 {
		b.Fatalf("detached span path allocates %v per op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detached()
	}
}
