package obs

// Request-scoped tracing: a TraceContext collects the named spans of
// one request — decode, canonicalise, cache-probe, gate, simulate,
// encode — stamped relative to the request's start. ivmserved builds
// one per API request (honoring an incoming X-Request-ID or minting
// one), threads it through context.Context into the engine's resolve
// path (it implements sweep.SpanSink), and exports completed requests
// into the Chrome-trace writer as the "requests" process
// (WriteRequestTrace) and into the slog access log. A nil TraceContext
// is fully detached: every method is a no-op that allocates nothing,
// the same zero-cost contract as the detached tracer and timeline.

import (
	"sync"
	"sync/atomic"
	"time"

	"ivm/internal/sweep"
)

// Span is one named interval of a traced request, stamped in
// nanoseconds relative to the request's start.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// DefaultTraceContextCapacity bounds the spans one TraceContext
// retains through the engine's span seam (Start and Span); a batch of
// thousands of specs keeps its first spans and counts the rest as
// dropped, so one request cannot hold unbounded memory. The handler's
// own spans (Keep) fall outside the bound.
const DefaultTraceContextCapacity = 512

// fullToken is the Start token of a full context: Span counts it as a
// drop without reading the clock or taking the lock.
const fullToken = -1

// TraceContext is the span recorder of one request. Safe for
// concurrent use (batch resolutions record from many workers); build
// with NewTraceContext. It implements sweep.SpanSink, so it can ride
// a context.Context into Engine.ResolveBatchCtx.
type TraceContext struct {
	id    string
	epoch time.Time

	bounded atomic.Int64 // spans recorded through Span, added under mu
	dropped atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// TraceContext must satisfy the engine's span seam.
var _ sweep.SpanSink = (*TraceContext)(nil)

// NewTraceContext builds a recorder for one request; id is the
// request's trace identifier (the X-Request-ID value). The epoch is
// now: span stamps are relative to it.
func NewTraceContext(id string) *TraceContext {
	return &TraceContext{id: id, epoch: time.Now()}
}

// Start returns a span-start token for Span: nanoseconds since the
// request began (0 on nil). A full context reads no clock and returns
// a token that Span counts as dropped.
func (t *TraceContext) Start() int64 {
	if t == nil {
		return 0
	}
	if t.bounded.Load() >= DefaultTraceContextCapacity {
		return fullToken
	}
	return t.Now()
}

// Span records a named span begun at a Start token and ending now.
// Past DefaultTraceContextCapacity spans it only counts drops, with
// one atomic add.
func (t *TraceContext) Span(name string, start int64) {
	if t == nil {
		return
	}
	if start == fullToken {
		t.dropped.Add(1)
		return
	}
	end := t.Now()
	t.mu.Lock()
	if t.bounded.Load() >= DefaultTraceContextCapacity {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, Span{Name: name, StartNS: start, DurNS: end - start})
	t.bounded.Add(1)
	t.mu.Unlock()
}

// Now returns nanoseconds since the request began (0 on nil), the
// start token Keep takes; unlike Start it reads the clock whether or
// not the context is full.
func (t *TraceContext) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Keep records a span of the request's handler — decode, encode —
// begun at a Now token and ending now, whatever the bound: a handler
// records a few per request, so a batch's engine spans cannot crowd
// them out.
func (t *TraceContext) Keep(name string, start int64) {
	if t == nil {
		return
	}
	end := t.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, StartNS: start, DurNS: end - start})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order (nil
// on a nil context).
func (t *TraceContext) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped counts spans lost to the capacity bound (0 on nil).
func (t *TraceContext) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}
