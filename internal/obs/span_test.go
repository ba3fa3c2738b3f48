package obs

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ivm/internal/sweep"
)

// phaseCounts maps each phase of a summary to its span count.
func phaseCounts(sum TraceSummary) map[string]int64 {
	out := map[string]int64{}
	for _, p := range sum.Phases() {
		out[p.Name] = p.Count
	}
	return out
}

// TestTraceContextRecords checks the basic record/readback contract.
func TestTraceContextRecords(t *testing.T) {
	tc := NewTraceContext("req-1")
	if tc.id != "req-1" {
		t.Fatalf("ID = %q", tc.id)
	}
	s := tc.Start()
	tc.Span("decode", s)
	tc.Span(sweep.SpanSimulate, tc.Start())
	sum := tc.Summary()
	spans := sum.Spans
	if len(spans) != 2 || spans[0].Name != "decode" || spans[1].Name != sweep.SpanSimulate || sum.Folded != nil {
		t.Fatalf("summary = %+v", sum)
	}
	for _, sp := range spans {
		if sp.DurNS < 0 || sp.StartNS < 0 {
			t.Errorf("span %+v has negative timing", sp)
		}
	}
	if sum.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", sum.Dropped)
	}
	// A summary owns its spans: mutating it must not touch the recorder.
	spans[0].Name = "mutated"
	if tc.Summary().Spans[0].Name != "decode" {
		t.Error("Summary exposed internal state")
	}
}

// TestTraceContextCapacity checks the drop accounting past the bound.
func TestTraceContextCapacity(t *testing.T) {
	tc := NewTraceContext("big")
	for i := 0; i < DefaultTraceContextCapacity+10; i++ {
		tc.Span("s", 0)
	}
	sum := tc.Summary()
	if got := phaseCounts(sum)["s"]; got != DefaultTraceContextCapacity {
		t.Errorf("summarised %d spans, want %d", got, DefaultTraceContextCapacity)
	}
	if len(sum.Spans) != SlowestSpans {
		t.Errorf("kept %d spans, want %d", len(sum.Spans), SlowestSpans)
	}
	if got := sum.Dropped; got != 10 {
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
	sum := tc.Summary()
	if got := phaseCounts(sum)[sweep.SpanGate] + sum.Dropped; got != 400 {
		t.Errorf("recorded+dropped = %d, want 400", got)
	}
}

// TestTraceContextFull fills a context from concurrent recorders (go
// test -race watches it): every span attempted is summarised or
// counted dropped, the handler's Keep span is kept past the bound, and
// a full context records a drop without allocating.
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
	sum := tc.Summary()
	counts := phaseCounts(sum)
	if counts[sweep.SpanSimulate] != DefaultTraceContextCapacity || counts["encode"] != 1 {
		t.Fatalf("phases %v, want %d seam spans and one encode", counts, DefaultTraceContextCapacity)
	}
	if last := sum.Spans[len(sum.Spans)-1]; last.Name != "encode" {
		t.Errorf("last kept span %q, want encode", last.Name)
	}
	if got := int64(DefaultTraceContextCapacity) + sum.Dropped; got != goroutines*each {
		t.Errorf("summarised+dropped = %d, want %d attempted", got, goroutines*each)
	}
	if n := testing.AllocsPerRun(200, func() { tc.Span(sweep.SpanSimulate, tc.Start()) }); n != 0 {
		t.Errorf("a full context allocates %v times per span, want 0", n)
	}
}

// TestTraceSummaryKeepsSlowest records engine spans of known length
// (a start token that far back) around two handler spans: the summary
// keeps both handler spans and the SlowestSpans longest engine spans,
// in start order, and folds the rest so that each phase's count, total
// and maximum match the spans recorded.
func TestTraceSummaryKeepsSlowest(t *testing.T) {
	tc := NewTraceContext("slowest")
	tc.Keep("decode", tc.Now())
	const n = 3 * SlowestSpans
	names := []string{sweep.SpanGate, sweep.SpanCanon, sweep.SpanSimulate}
	for i := range n {
		// Span i lasts about (i+1) ms: the last SlowestSpans are slowest.
		tc.Span(names[i%3], tc.Now()-int64(i+1)*1_000_000)
	}
	tc.Keep("encode", tc.Now())
	sum := tc.Summary()

	if len(sum.Spans) != SlowestSpans+2 {
		t.Fatalf("kept %d spans, want %d", len(sum.Spans), SlowestSpans+2)
	}
	handler := 0
	for i, sp := range sum.Spans {
		if i > 0 && sp.StartNS < sum.Spans[i-1].StartNS {
			t.Errorf("kept spans out of start order at %d", i)
		}
		switch {
		case sp.Name == "decode" || sp.Name == "encode":
			handler++
		case sp.DurNS < (n-SlowestSpans)*1_000_000:
			t.Errorf("kept a %d ns %s span, not among the %d slowest", sp.DurNS, sp.Name, SlowestSpans)
		}
	}
	if handler != 2 {
		t.Errorf("kept %d handler spans, want 2", handler)
	}
	var folded int64
	for _, f := range sum.Folded {
		folded += f.Count
	}
	if folded != n-SlowestSpans {
		t.Errorf("folded %d spans, want %d", folded, n-SlowestSpans)
	}
	for _, p := range sum.Phases() {
		if p.Name == "decode" || p.Name == "encode" {
			continue
		}
		if p.Count != n/3 {
			t.Errorf("phase %s counts %d spans, want %d", p.Name, p.Count, n/3)
		}
		// Phase j holds spans j, j+3, …: about (j+1) + … + (n-2+j) ms.
		j := int64(slices.Index(names, p.Name))
		want := int64(n/3)*(j+1)*1_000_000 + 3*int64(n/3)*int64(n/3-1)/2*1_000_000
		if p.TotalNS < want || p.TotalNS > want+int64(time.Second) {
			t.Errorf("phase %s totals %d ns, want about %d", p.Name, p.TotalNS, want)
		}
		if p.MaxNS < (n-3+j+1)*1_000_000 {
			t.Errorf("phase %s max %d ns, want at least %d", p.Name, p.MaxNS, (n-3+j+1)*1_000_000)
		}
	}
}

// TestTraceSummaryAllocs pins what the fold costs a request: a
// single-spec request's handful of spans fold in one allocation, the
// one copy of the span slice the summary replaces; a batch's full
// context folds in two (the kept spans and the folded phases), and its
// summary holds about a kilobyte where the copy held DefaultTraceContextCapacity spans.
func TestTraceSummaryAllocs(t *testing.T) {
	single := NewTraceContext("single")
	single.Keep("decode", single.Now())
	for _, name := range []string{sweep.SpanCanon, sweep.SpanCacheProbe, sweep.SpanSimulate} {
		single.Span(name, single.Start())
	}
	single.Keep("encode", single.Now())
	if n := testing.AllocsPerRun(100, func() { single.Summary() }); n > 1 {
		t.Errorf("a single-spec request folds in %v allocations, want at most 1", n)
	}
	batch := NewTraceContext("batch")
	batch.Keep("decode", batch.Now())
	for i := range DefaultTraceContextCapacity + 5 {
		batch.Span([]string{sweep.SpanGate, sweep.SpanCanon, sweep.SpanCacheProbe}[i%3], batch.Start())
	}
	batch.Keep("encode", batch.Now())
	if n := testing.AllocsPerRun(100, func() { batch.Summary() }); n > 2 {
		t.Errorf("a full batch context folds in %v allocations, want at most 2", n)
	}
	sum := batch.Summary()
	if size := len(sum.Spans)*int(unsafe.Sizeof(Span{})) + len(sum.Folded)*int(unsafe.Sizeof(PhaseSum{})); size > 1024 {
		t.Errorf("a batch summary holds %d B, want at most 1 KiB", size)
	}
}

// TestDetachedTraceContext pins the nil contract: every method is a
// no-op and the detached span path allocates nothing — the cost a
// request-free sweep pays for the seam existing.
func TestDetachedTraceContext(t *testing.T) {
	var tc *TraceContext
	if sum := tc.Summary(); sum.Dropped != 0 || sum.Spans != nil || sum.Folded != nil {
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
	if tc.Summary().Spans != nil {
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
	byName := phaseCounts(tc.Summary())
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
