// Package obs is the observability layer over the simulator's
// memsys.Listener seam: a ring-buffered event tracer cheap enough to
// leave attached, exporters that turn a traced window into a Chrome
// trace_event file (chrome://tracing, Perfetto), a CSV timeline or a
// plain-text bank-occupancy strip chart, and a metrics registry that
// snapshots engine/collector counters to JSON and serves them live as
// Prometheus text and JSON beside net/http/pprof.
//
// The tracer's ring is its only record, single-writer and read after
// the run: the exporters and Tracer.Stats all read the retained
// events. A ring sized to the run (clocks × ports, since a port yields
// at most one event per clock) drops nothing.
package obs

import "ivm/internal/memsys"

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

// DefaultTracerCapacity is the event ring size NewTracer selects for a
// non-positive capacity: enough for every event of a long steady-state
// search on paper-sized systems.
const DefaultTracerCapacity = 1 << 16

// Tracer records simulator events into a preallocated ring. When the
// ring is full the oldest events are overwritten (and counted as
// dropped), so a trace always holds the most recent window. It
// implements memsys.Listener.
type Tracer struct {
	ring  []Event
	total int64 // events ever observed
}

// NewTracer builds a tracer whose ring holds capacity events; a
// non-positive capacity selects DefaultTracerCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Attach builds a tracer and installs it as the system's listener.
func Attach(sys *memsys.System, capacity int) *Tracer {
	t := NewTracer(capacity)
	sys.SetListener(t)
	return t
}

// Observe implements memsys.Listener.
func (t *Tracer) Observe(e memsys.Event) {
	ev := Event{Clock: e.Clock, Port: e.Port.ID, Label: e.Port.Label, CPU: e.Port.CPU, Bank: e.Bank, Kind: e.Kind, Blocker: -1}
	if e.Blocker != nil {
		ev.Blocker = e.Blocker.ID
	}
	t.ring[t.total%int64(len(t.ring))] = ev
	t.total++
}

// Events returns the retained events in chronological order (the most
// recent capacity events when the ring wrapped). The slice is a copy.
func (t *Tracer) Events() []Event {
	if t.total <= int64(len(t.ring)) {
		return append([]Event(nil), t.ring[:t.total]...)
	}
	next := t.total % int64(len(t.ring))
	out := append(make([]Event, 0, len(t.ring)), t.ring[next:]...)
	return append(out, t.ring[:next]...)
}

// Dropped returns how many observed events the ring overwrote.
func (t *Tracer) Dropped() int64 { return max(t.total-int64(len(t.ring)), 0) }

// TraceStats is the JSON-serialisable summary of a tracer: totals over
// the retained events plus the state of the event ring.
type TraceStats struct {
	Events                int     `json:"events"`   // events currently in the ring
	Recorded              int64   `json:"recorded"` // events ever written to the ring
	Dropped               int64   `json:"dropped"`  // ring overwrites (oldest lost)
	Grants                int64   `json:"grants"`   // over the retained events
	Delays                int64   `json:"delays"`   // over the retained events
	BankConflicts         int64   `json:"bank_conflicts"`
	SimultaneousConflicts int64   `json:"simultaneous_conflicts"`
	SectionConflicts      int64   `json:"section_conflicts"`
	FirstClock            int64   `json:"first_clock"`
	LastClock             int64   `json:"last_clock"`
	Bandwidth             float64 `json:"bandwidth"` // grants per retained clock
}

// Stats summarises the retained events; on a ring that dropped nothing
// they are the whole run.
func (t *Tracer) Stats() TraceStats {
	events := t.Events()
	s := TraceStats{Events: len(events), Recorded: t.total, Dropped: t.Dropped()}
	for _, e := range events {
		switch e.Kind {
		case memsys.NoConflict:
			s.Grants++
		case memsys.BankConflict:
			s.BankConflicts++
		case memsys.SimultaneousConflict:
			s.SimultaneousConflicts++
		case memsys.SectionConflict:
			s.SectionConflicts++
		}
	}
	s.Delays = s.BankConflicts + s.SimultaneousConflicts + s.SectionConflicts
	if len(events) > 0 {
		s.FirstClock, s.LastClock = events[0].Clock, events[len(events)-1].Clock
		s.Bandwidth = float64(s.Grants) / float64(s.LastClock-s.FirstClock+1)
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
