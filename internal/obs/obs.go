// Package obs is the observability layer over the simulator's
// memsys.Listener seam: a ring-buffered event tracer cheap enough to
// leave attached, exporters that turn a traced window into a Chrome
// trace_event file (chrome://tracing, Perfetto), a CSV timeline or a
// plain-text bank-occupancy strip chart, and a metrics registry that
// snapshots engine/collector counters to JSON and serves them live as
// Prometheus text and JSON beside net/http/pprof.
//
// The tracer's totals (grants, delays, per-kind conflict counts) are
// kept in sync/atomic counters and are safe to read from another
// goroutine while a simulation runs; the CLIs read them after the run
// into the -metrics-out snapshot, and no live metrics registry
// registers a tracer. The event ring itself is single-writer and meant
// to be read after the run.
package obs

import (
	"sync/atomic"

	"ivm/internal/memsys"
)

// Event is a value copy of one per-clock simulator outcome. Unlike
// memsys.Event it holds no *Port pointers, so a retained trace cannot
// keep a simulation's object graph alive.
type Event struct {
	Clock   int64               `json:"clock"`
	Port    int                 `json:"port"`
	Label   string              `json:"label,omitempty"`
	CPU     int                 `json:"cpu"`
	Bank    int                 `json:"bank"`
	Kind    memsys.ConflictKind `json:"kind"`
	Blocker int                 `json:"blocker"` // blocking port ID; -1 for grants
}

// Granted reports whether the event is a grant (Kind == NoConflict).
func (e Event) Granted() bool { return e.Kind == memsys.NoConflict }

// DefaultTracerCapacity is the event ring size when TracerOptions
// leaves Capacity zero: enough for every event of a long steady-state
// search on paper-sized systems.
const DefaultTracerCapacity = 1 << 16

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Capacity is the event ring size; 0 selects DefaultTracerCapacity.
	// When the ring is full the oldest events are overwritten (and
	// counted as dropped), so a trace always holds the most recent
	// window.
	Capacity int
}

// Tracer records simulator events into a preallocated ring and keeps
// exact atomic totals. It implements memsys.Listener.
type Tracer struct {
	opt  TracerOptions
	ring []Event
	n    int // filled slots
	next int // next write position

	grants  atomic.Int64
	delays  atomic.Int64
	kinds   [4]atomic.Int64 // indexed by memsys.ConflictKind
	dropped atomic.Int64    // ring overwrites

	haveClock  atomic.Bool
	firstClock atomic.Int64
	lastClock  atomic.Int64
}

// NewTracer builds a tracer with its ring preallocated.
func NewTracer(opt TracerOptions) *Tracer {
	if opt.Capacity <= 0 {
		opt.Capacity = DefaultTracerCapacity
	}
	return &Tracer{opt: opt, ring: make([]Event, opt.Capacity)}
}

// Attach builds a tracer and installs it as the system's listener.
func Attach(sys *memsys.System, opt TracerOptions) *Tracer {
	t := NewTracer(opt)
	sys.SetListener(t)
	return t
}

// Observe implements memsys.Listener.
func (t *Tracer) Observe(e memsys.Event) {
	if e.Kind == memsys.NoConflict {
		t.grants.Add(1)
	} else {
		t.delays.Add(1)
		t.kinds[e.Kind].Add(1)
	}
	if !t.haveClock.Load() {
		t.firstClock.Store(e.Clock)
		t.haveClock.Store(true)
	}
	t.lastClock.Store(e.Clock)

	ev := Event{Clock: e.Clock, Port: e.Port.ID, Label: e.Port.Label, CPU: e.Port.CPU, Bank: e.Bank, Kind: e.Kind, Blocker: -1}
	if e.Blocker != nil {
		ev.Blocker = e.Blocker.ID
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	} else {
		t.dropped.Add(1)
	}
}

// Events returns the recorded events in chronological order (the most
// recent Capacity events when the ring wrapped). The slice is a copy.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.n)
	if t.n < len(t.ring) {
		return append(out, t.ring[:t.n]...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Grants returns the exact number of grants observed.
func (t *Tracer) Grants() int64 { return t.grants.Load() }

// Delays returns the exact number of delayed port-clocks observed.
func (t *Tracer) Delays() int64 { return t.delays.Load() }

// KindCount returns the exact number of delays of one conflict kind.
func (t *Tracer) KindCount(k memsys.ConflictKind) int64 {
	if k < 0 || int(k) >= len(t.kinds) {
		return 0
	}
	return t.kinds[k].Load()
}

// Dropped returns how many recorded events the ring overwrote.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// TraceStats is the JSON-serialisable summary of a tracer: exact
// totals plus the state of the event ring.
type TraceStats struct {
	Events                int     `json:"events"`   // events currently in the ring
	Recorded              int64   `json:"recorded"` // events ever written to the ring
	Dropped               int64   `json:"dropped"`  // ring overwrites (oldest lost)
	Grants                int64   `json:"grants"`   // exact, unaffected by ring overwrites
	Delays                int64   `json:"delays"`   // exact, unaffected by ring overwrites
	BankConflicts         int64   `json:"bank_conflicts"`
	SimultaneousConflicts int64   `json:"simultaneous_conflicts"`
	SectionConflicts      int64   `json:"section_conflicts"`
	FirstClock            int64   `json:"first_clock"`
	LastClock             int64   `json:"last_clock"`
	Bandwidth             float64 `json:"bandwidth"` // grants per observed clock
}

// Stats snapshots the tracer. Counter fields are safe to snapshot
// while a simulation runs.
func (t *Tracer) Stats() TraceStats {
	s := TraceStats{
		Events:                t.n,
		Dropped:               t.dropped.Load(),
		Grants:                t.grants.Load(),
		Delays:                t.delays.Load(),
		BankConflicts:         t.kinds[memsys.BankConflict].Load(),
		SimultaneousConflicts: t.kinds[memsys.SimultaneousConflict].Load(),
		SectionConflicts:      t.kinds[memsys.SectionConflict].Load(),
	}
	s.Recorded = int64(s.Events) + s.Dropped
	if t.haveClock.Load() {
		s.FirstClock = t.firstClock.Load()
		s.LastClock = t.lastClock.Load()
		if clocks := s.LastClock - s.FirstClock + 1; clocks > 0 {
			s.Bandwidth = float64(s.Grants) / float64(clocks)
		}
	}
	return s
}

// Tee fans one event stream out to several listeners, so a tracer can
// ride alongside the timeline recorder or a stats collector on the
// single memsys listener seam.
type Tee []memsys.Listener

// Observe implements memsys.Listener.
func (t Tee) Observe(e memsys.Event) {
	for _, l := range t {
		if l != nil {
			l.Observe(e)
		}
	}
}
