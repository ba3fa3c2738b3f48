package harness

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivm/internal/sweep"
)

// Span is one timed interval of the traced run: a named call into a
// layer, its parent span (0 for a request's top-level call), and the
// request it belongs to. Times are nanoseconds since the tracer began.
type Span struct {
	Name    string
	ID      int64
	Parent  int64
	Req     int64
	StartNS int64
	EndNS   int64
}

// maxKeptSpans bounds the spans retained for the Chrome trace file;
// the per-layer totals keep counting past it.
const maxKeptSpans = 1 << 16

// Tracer records spans in memory and folds every span into per-name
// totals. Safe for concurrent use.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu      sync.Mutex
	kept    []Span
	dropped int64
	totals  map[string]*total
}

// total is the count, summed duration and durations of one span name.
type total struct {
	n   int64
	ns  int64
	all []int64
}

// NewTracer starts a tracer; span times count from now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), totals: make(map[string]*total)}
}

// Now is the tracer clock.
func (t *Tracer) Now() int64 { return time.Since(t.epoch).Nanoseconds() }

// NewID allocates a span or request identifier (never 0).
func (t *Tracer) NewID() int64 { return t.ids.Add(1) }

// Record stores one finished span.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(s.Name, s.EndNS-s.StartNS)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
	}
}

// Add folds a derived duration (not a recorded span) into the totals.
func (t *Tracer) Add(name string, ns int64) {
	t.mu.Lock()
	t.addLocked(name, ns)
	t.mu.Unlock()
}

func (t *Tracer) addLocked(name string, ns int64) {
	a := t.totals[name]
	if a == nil {
		a = &total{}
		t.totals[name] = a
	}
	a.n++
	a.ns += ns
	a.all = append(a.all, ns)
}

// SumNS is the summed duration of a span name.
func (t *Tracer) SumNS(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.totals[name]; a != nil {
		return a.ns
	}
	return 0
}

// MedianUS is the median duration of a span name in microseconds, 0
// when none was recorded. The served ledger is built from medians: a
// burst of interference inflates a mean over a few hundred batches by
// more than the layers it is meant to separate.
func (t *Tracer) MedianUS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.totals[name]
	if a == nil {
		return 0
	}
	v := make([]float64, len(a.all))
	for i, ns := range a.all {
		v[i] = float64(ns) / 1e3
	}
	return Median(v)
}

// WriteChrome writes the kept spans as a Chrome trace_event document:
// one complete ("X") event per span on a thread per request, with the
// span and parent IDs in its args.
func (t *Tracer) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.kept...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: s.Req,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "request": s.Req},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": events,
		"otherData":   map[string]any{"dropped_spans": dropped},
	})
}

// resolveSink is the bench-owned sweep.SpanSink of one traced resolve
// call: it collects the engine's gate, canonicalise, cache-probe and
// simulate spans, children of the resolve span. Span only appends, so
// that the sink adds as little as it can to the call it times; flush
// hands the spans to the tracer once the call has returned.
type resolveSink struct {
	t      *Tracer
	req    int64
	parent int64

	mu    sync.Mutex
	spans []Span
}

var _ sweep.SpanSink = (*resolveSink)(nil)

func newResolveSink(t *Tracer, req, parent int64, placements int) *resolveSink {
	return &resolveSink{t: t, req: req, parent: parent, spans: make([]Span, 0, 4*placements)}
}

func (s *resolveSink) Start() int64 { return s.t.Now() }

func (s *resolveSink) Span(name string, start int64) {
	end := s.t.Now()
	s.mu.Lock()
	s.spans = append(s.spans, Span{Name: name, Parent: s.parent, Req: s.req, StartNS: start, EndNS: end})
	s.mu.Unlock()
}

// flush records the collected spans and the part of the resolve call
// they cover: the length of the union of their intervals, because on a
// batch the workers' children overlap and only their union is wall
// time of the call.
func (s *resolveSink) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	ivs := make([][2]int64, len(s.spans))
	for i, sp := range s.spans {
		sp.ID = s.t.NewID()
		s.t.Record(sp)
		ivs[i] = [2]int64{sp.StartNS, sp.EndNS}
	}
	s.t.Add(sumCovered, unionNS(ivs))
}

// unionNS is the total length of the union of intervals (sorted in
// place).
func unionNS(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, end int64
	first := true
	var start int64
	for _, iv := range ivs {
		if first || iv[0] > end {
			if !first {
				sum += end - start
			}
			start, end, first = iv[0], iv[1], false
			continue
		}
		if iv[1] > end {
			end = iv[1]
		}
	}
	if !first {
		sum += end - start
	}
	return sum
}

// Layer is one row of a ledger: a layer and its mean self time per
// unit of work.
type Layer struct {
	Name   string  `json:"name"`
	SelfUS float64 `json:"self_us"`
}

// Ledger splits a traced wall time per unit of work (a request, or a
// census work item) into layer self times and what none of them
// covers.
type Ledger struct {
	Unit   string  `json:"unit"`
	WallUS float64 `json:"wall_us"`
	Layers []Layer `json:"layers"`
}

// SumUS is the summed layer self times.
func (l Ledger) SumUS() float64 {
	var s float64
	for _, ly := range l.Layers {
		s += ly.SelfUS
	}
	return s
}

// ResidualUS is the wall time no layer accounts for, so that the layer
// self times plus the residual equal the wall time.
func (l Ledger) ResidualUS() float64 { return l.WallUS - l.SumUS() }

// ResidualPct is the residual as a share of the wall time.
func (l Ledger) ResidualPct() float64 {
	if l.WallUS == 0 {
		return 0
	}
	return 100 * l.ResidualUS() / l.WallUS
}
