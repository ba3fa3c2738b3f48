package sweep

// Request-scoped span seam of the resolve path: a SpanSink rides a
// context.Context into Engine.ResolveCtx/ResolveBatchCtx and receives
// the named phases of every resolution — gate, canonicalise,
// cache-probe, simulate — so a serving layer can reconstruct one
// request's anatomy. Like CacheSink, the interface keeps
// internal/sweep free of an obs dependency (obs.TraceContext is the
// implementation, and obs imports sweep). The answer route's phase
// timer reports each phase to the sink and the Timeline together; a
// nil sink is fully detached — one nil check per phase boundary, no
// clock read, no allocation — the same contract as a nil Timeline or
// Provenance.

import "context"

// SpanSink receives named spans of a resolution. Implementations must
// be safe for concurrent use: a batch records from every worker.
type SpanSink interface {
	// Start returns a span-start token (implementation-defined clock,
	// typically nanoseconds since the request began).
	Start() int64
	// Span records a named span begun at a Start token and ending now.
	Span(name string, start int64)
}

// The span names the resolve path records, exported so consumers can
// match them without string literals.
const (
	// SpanGate is the analytic classifier-gate probe.
	SpanGate = "gate"
	// SpanCanon is the canonicalisation of one placement into its key.
	SpanCanon = "canonicalise"
	// SpanCacheProbe is the canonical-key cache lookup.
	SpanCacheProbe = "cache-probe"
	// SpanSimulate is one cache-miss simulation, steady-state detection
	// included.
	SpanSimulate = "simulate"
)

// spanKey is the context key of the resolve path's span sink.
type spanKey struct{}

// WithSpanSink returns a context carrying the span sink; pass it to
// ResolveCtx/ResolveBatchCtx to have the resolve phases recorded.
func WithSpanSink(ctx context.Context, s SpanSink) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanSinkFrom extracts the span sink from a context (nil when absent,
// which the resolve path treats as detached).
func SpanSinkFrom(ctx context.Context) SpanSink {
	s, _ := ctx.Value(spanKey{}).(SpanSink)
	return s
}
