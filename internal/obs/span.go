package obs

// Request-scoped tracing: a TraceContext collects the named spans of
// one request — decode, canonicalise, cache-probe, gate, simulate,
// encode — stamped relative to the request's start. ivmserved builds
// one per API request (honoring an incoming X-Request-ID or minting
// one), threads it through context.Context into the engine's resolve
// path (it implements sweep.SpanSink), folds each completed request
// once into a TraceSummary, and exports the summaries into the
// Chrome-trace writer as the "requests" process (WriteRequestTrace)
// and into the slog slow-query log. A nil TraceContext
// is fully detached: every method is a no-op that allocates nothing,
// the same zero-cost contract as the detached tracer and timeline.

import (
	"cmp"
	"slices"
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

	mu      sync.Mutex
	spans   []Span // the engine's, through Span
	handler []Span // the handler's, through Keep
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
// them out, and a summary keeps every one.
func (t *TraceContext) Keep(name string, start int64) {
	if t == nil {
		return
	}
	end := t.Now()
	t.mu.Lock()
	t.handler = append(t.handler, Span{Name: name, StartNS: start, DurNS: end - start})
	t.mu.Unlock()
}

// SlowestSpans is how many engine spans a TraceSummary keeps whole:
// the slowest ones. The rest are folded into per-phase totals.
const SlowestSpans = 16

// PhaseSum is the fold of one phase's spans: how many there were,
// their total duration and the longest.
type PhaseSum struct {
	Name    string
	Count   int64
	TotalNS int64
	MaxNS   int64
}

// add folds n spans of the phase in: totalNS long together, the
// longest maxNS.
func (p *PhaseSum) add(n, totalNS, maxNS int64) {
	p.Count += n
	p.TotalNS += totalNS
	p.MaxNS = max(p.MaxNS, maxNS)
}

// phaseIndex returns ps holding a phase named name, and its index.
func phaseIndex(ps []PhaseSum, name string) ([]PhaseSum, int) {
	if j := slices.IndexFunc(ps, func(p PhaseSum) bool { return p.Name == name }); j >= 0 {
		return ps, j
	}
	return append(ps, PhaseSum{Name: name}), len(ps)
}

// TraceSummary is what a completed request retains of its trace: every
// handler span, the SlowestSpans slowest engine spans, and the other
// engine spans folded per phase, so each phase's count, total and
// maximum stay exact (Phases) while a batch of thousands of spans keeps
// about a kilobyte. Dropped counts the spans the context's bound
// refused, which no phase counts.
type TraceSummary struct {
	// Spans are the kept spans, by start.
	Spans []Span
	// Folded sums the engine spans not kept, per phase.
	Folded  []PhaseSum
	Dropped int64
}

// Summary folds the recorded spans into a TraceSummary under the
// context's lock, without copying the span slice: it allocates the
// kept spans, and the folded phases only when there are spans to fold
// (a request of at most SlowestSpans engine spans keeps them all, one
// allocation). The zero summary on nil.
func (t *TraceContext) Summary() TraceSummary {
	if t == nil {
		return TraceSummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := TraceSummary{Dropped: t.dropped.Load()}
	// slow holds the indices of the slowest engine spans, slowest first
	// (ties: recorded first).
	var slowBuf [SlowestSpans]int
	slow := slowBuf[:0]
	for i, sp := range t.spans {
		n := len(slow)
		if n == SlowestSpans {
			if sp.DurNS <= t.spans[slow[n-1]].DurNS {
				continue
			}
			n--
		} else {
			slow = slow[:n+1]
		}
		for ; n > 0 && sp.DurNS > t.spans[slow[n-1]].DurNS; n-- {
			slow[n] = slow[n-1]
		}
		slow[n] = i
	}
	if n := len(t.handler) + len(slow); n > 0 {
		sum.Spans = append(make([]Span, 0, n), t.handler...)
		for _, i := range slow {
			sum.Spans = append(sum.Spans, t.spans[i])
		}
		slices.SortStableFunc(sum.Spans, func(a, b Span) int { return cmp.Compare(a.StartNS, b.StartNS) })
	}
	if len(t.spans) > len(slow) {
		var foldBuf [8]PhaseSum
		folded := foldBuf[:0]
		slices.Sort(slow)
		for i, sp := range t.spans {
			if len(slow) > 0 && slow[0] == i {
				slow = slow[1:]
				continue
			}
			var j int
			folded, j = phaseIndex(folded, sp.Name)
			folded[j].add(1, sp.DurNS, sp.DurNS)
		}
		sum.Folded = slices.Clone(folded)
	}
	return sum
}

// Phases folds the summary per phase, in order of first kept span
// (then first folded span): each phase's count, total and maximum over
// every span the context recorded.
func (s TraceSummary) Phases() []PhaseSum {
	var out []PhaseSum
	var j int
	for _, sp := range s.Spans {
		out, j = phaseIndex(out, sp.Name)
		out[j].add(1, sp.DurNS, sp.DurNS)
	}
	for _, f := range s.Folded {
		out, j = phaseIndex(out, f.Name)
		out[j].add(f.Count, f.TotalNS, f.MaxNS)
	}
	return out
}
