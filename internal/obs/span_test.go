package obs

import (
	"strings"
	"sync"
	"testing"

	"ivm/internal/sweep"
)

// TestTraceContextRecords checks the basic record/readback contract.
func TestTraceContextRecords(t *testing.T) {
	tc := NewTraceContext("req-1")
	if tc.id != "req-1" {
		t.Fatalf("ID = %q", tc.id)
	}
	s := tc.Start()
	tc.Span("decode", s)
	tc.Span(sweep.SpanSimulate, tc.Start())
	spans := tc.Spans()
	if len(spans) != 2 || spans[0].Name != "decode" || spans[1].Name != sweep.SpanSimulate {
		t.Fatalf("spans = %+v", spans)
	}
	for _, sp := range spans {
		if sp.DurNS < 0 || sp.StartNS < 0 {
			t.Errorf("span %+v has negative timing", sp)
		}
	}
	if tc.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", tc.Dropped())
	}
	// Spans returns a copy: mutating it must not touch the recorder.
	spans[0].Name = "mutated"
	if tc.Spans()[0].Name != "decode" {
		t.Error("Spans exposed internal state")
	}
}

// TestTraceContextCapacity checks the drop accounting past the bound.
func TestTraceContextCapacity(t *testing.T) {
	tc := NewTraceContext("big")
	for i := 0; i < DefaultTraceContextCapacity+10; i++ {
		tc.Span("s", 0)
	}
	if got := len(tc.Spans()); got != DefaultTraceContextCapacity {
		t.Errorf("retained %d spans, want %d", got, DefaultTraceContextCapacity)
	}
	if got := tc.Dropped(); got != 10 {
		t.Errorf("dropped = %d, want 10", got)
	}
}

// TestTraceContextConcurrent exercises the recorder from many
// goroutines, the batch-resolution shape (go test -race watches it).
func TestTraceContextConcurrent(t *testing.T) {
	tc := NewTraceContext("conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tc.Span(sweep.SpanGate, tc.Start())
			}
		}()
	}
	wg.Wait()
	if got := len(tc.Spans()) + int(tc.Dropped()); got != 400 {
		t.Errorf("recorded+dropped = %d, want 400", got)
	}
}

// TestTraceContextFull fills a context from concurrent recorders (go
// test -race watches it): every span attempted is retained or counted
// dropped, the handler's Keep span is retained past the bound, and a
// full context records a drop without allocating.
func TestTraceContextFull(t *testing.T) {
	tc := NewTraceContext("full")
	const goroutines, each = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tc.Span(sweep.SpanSimulate, tc.Start())
			}
		}()
	}
	wg.Wait()
	tc.Keep("encode", tc.Now())
	spans := tc.Spans()
	if len(spans) != DefaultTraceContextCapacity+1 || spans[len(spans)-1].Name != "encode" {
		t.Fatalf("retained %d spans ending %q, want %d seam spans then encode",
			len(spans), spans[len(spans)-1].Name, DefaultTraceContextCapacity)
	}
	if got := int64(DefaultTraceContextCapacity) + tc.Dropped(); got != goroutines*each {
		t.Errorf("retained+dropped = %d, want %d attempted", got, goroutines*each)
	}
	if n := testing.AllocsPerRun(200, func() { tc.Span(sweep.SpanSimulate, tc.Start()) }); n != 0 {
		t.Errorf("a full context allocates %v times per span, want 0", n)
	}
}

// TestDetachedTraceContext pins the nil contract: every method is a
// no-op and the detached span path allocates nothing — the cost a
// request-free sweep pays for the seam existing.
func TestDetachedTraceContext(t *testing.T) {
	var tc *TraceContext
	if tc.Dropped() != 0 || tc.Spans() != nil {
		t.Error("nil TraceContext must read as empty")
	}
	var sink sweep.SpanSink // a nil sink, the engine's detached default
	if n := testing.AllocsPerRun(200, func() {
		if sink != nil {
			s := sink.Start()
			sink.Span(sweep.SpanSimulate, s)
		}
	}); n != 0 {
		t.Errorf("detached span path allocates %v times per op, want 0", n)
	}
	s := tc.Start()
	tc.Span("x", s) // must not panic
	if tc.Spans() != nil {
		t.Error("nil TraceContext recorded a span")
	}
}

// TestResolveBatchCtxSpans runs a real batch through the engine with a
// TraceContext attached and checks every resolve phase surfaces as a
// named span with plausible attribution.
func TestResolveBatchCtxSpans(t *testing.T) {
	eng := sweep.NewEngine(sweep.Options{Workers: 1})
	specs := []sweep.ConfigSpec{
		// m=16 nc=4 (1,2): the unique-barrier pair, provable under eq-29
		// from every start — the gate answers (span "gate" only).
		{M: 16, NC: 4, Streams: []sweep.Stream{{D: 1, B: 0, CPU: 0}, {D: 2, B: 0, CPU: 1}}},
		// d1=2, d2=4: Theorem 2's disjoint gate is active but declines
		// this overlapping placement ((b2-b1) mod gcd(8,2,4) = 0), so the
		// engine canonicalises, probes the cache, misses and simulates.
		{M: 8, NC: 2, Streams: []sweep.Stream{{D: 2, B: 0, CPU: 0}, {D: 4, B: 2, CPU: 1}}},
	}
	tc := NewTraceContext("batch-1")
	ctx := sweep.WithSpanSink(t.Context(), tc)
	results, err := eng.ResolveBatchCtx(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Path != sweep.PathAnalytic {
		t.Fatalf("spec 0 path = %v, want analytic", results[0].Path)
	}
	byName := map[string]int{}
	for _, sp := range tc.Spans() {
		byName[sp.Name]++
	}
	for _, want := range []string{sweep.SpanGate, sweep.SpanCanon, sweep.SpanCacheProbe, sweep.SpanSimulate} {
		if byName[want] == 0 {
			t.Errorf("no %q span recorded; got %v", want, byName)
		}
	}
	// Both specs probe the gate; only the second canonicalises.
	if byName[sweep.SpanGate] != 2 || byName[sweep.SpanCanon] != 1 || byName[sweep.SpanSimulate] != 1 {
		t.Errorf("span counts %v, want gate:2 canonicalise:1 simulate:1", byName)
	}
	// A context without a sink must resolve identically (the detached
	// path) — same bandwidths, no spans anywhere to observe.
	plain, err := eng.ResolveBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].BW != plain[i].BW {
			t.Errorf("spec %d: traced %v != plain %v", i, results[i].BW, plain[i].BW)
		}
	}
}

// TestSpanSinkFrom covers the context plumbing.
func TestSpanSinkFrom(t *testing.T) {
	if sweep.SpanSinkFrom(t.Context()) != nil {
		t.Error("sink on a bare context")
	}
	tc := NewTraceContext("ctx")
	got := sweep.SpanSinkFrom(sweep.WithSpanSink(t.Context(), tc))
	if got != sweep.SpanSink(tc) {
		t.Error("sink did not round-trip through the context")
	}
	if !strings.HasPrefix(tc.id, "ctx") {
		t.Errorf("ID = %q", tc.id)
	}
}
