package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Worker timeline: when Options.Timeline is set, the engine records
// what each pool slot was doing and when — work-item slices, cache
// hit/miss decisions, canonicalisation and simulation spans — as
// wall-clock events relative to the timeline's epoch. The recording
// is lock-per-event and off by default (a nil Timeline is a no-op on
// every method), so the sweeping hot path pays nothing unless a CLI
// asked for a trace. obs.WriteWorkerTrace renders the events
// as a Chrome trace_event document.

// TimelineKind classifies one timeline event.
type TimelineKind int

// The timeline event kinds. Slices (Item, Canon, Simulate, FindCycle)
// carry a duration; CacheHit and CacheMiss are instants marking the
// memo-cache decision of one placement.
const (
	// TimelineItem spans one work item (a sweep unit) on a worker.
	TimelineItem TimelineKind = iota
	// TimelineCanon spans the canonicalisation of one placement into
	// its cache key.
	TimelineCanon
	// TimelineSimulate spans one cache-miss simulation (including its
	// steady-state detection).
	TimelineSimulate
	// TimelineFindCycle spans one steady-state detection run.
	TimelineFindCycle
	// TimelineCacheHit marks a placement answered from the memo cache.
	TimelineCacheHit
	// TimelineCacheMiss marks a placement that had to be simulated.
	TimelineCacheMiss
	// TimelineAnalytic marks a placement answered by the theorem-driven
	// classifier gate, bypassing cache and simulator entirely.
	TimelineAnalytic
)

var timelineKindNames = [...]string{
	TimelineItem:      "item",
	TimelineCanon:     "canonicalise",
	TimelineSimulate:  "simulate",
	TimelineFindCycle: "find-cycle",
	TimelineCacheHit:  "cache-hit",
	TimelineCacheMiss: "cache-miss",
	TimelineAnalytic:  "analytic-hit",
}

// String names the kind ("item", "cache-hit", ...).
func (k TimelineKind) String() string {
	if k < 0 || int(k) >= len(timelineKindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return timelineKindNames[k]
}

// Instant reports whether the kind is an instant (no duration).
func (k TimelineKind) Instant() bool {
	return k == TimelineCacheHit || k == TimelineCacheMiss || k == TimelineAnalytic
}

// MarshalJSON encodes the kind by name, keeping snapshots readable.
func (k TimelineKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON inverts MarshalJSON.
func (k *TimelineKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range timelineKindNames {
		if name == s {
			*k = TimelineKind(i)
			return nil
		}
	}
	return fmt.Errorf("sweep: unknown timeline kind %q", s)
}

// TimelineEvent is one recorded slice or instant.
type TimelineEvent struct {
	Worker int          `json:"worker"` // pool slot
	Kind   TimelineKind `json:"kind"`
	// StartNS is nanoseconds since the timeline's epoch; DurNS is the
	// slice duration (0 for instants).
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns,omitempty"`
	// Item is the work-item index the event belongs to, -1 when the
	// recording site does not know it (steady-state detection).
	Item int `json:"item"`
	// Family is the configuration family being swept ("" when the
	// recording site does not know it).
	Family string `json:"family,omitempty"`
}

// DefaultTimelineCapacity bounds a Timeline built by NewTimeline(0).
const DefaultTimelineCapacity = 1 << 18

// Timeline is a bounded recorder of engine worker events. All methods
// are safe for concurrent use and are no-ops on a nil receiver, which
// is how the engine runs untraced.
type Timeline struct {
	mu      sync.Mutex
	epoch   time.Time
	cap     int
	events  []TimelineEvent
	dropped int64
}

// NewTimeline builds a recorder holding at most capacity events
// (0 selects DefaultTimelineCapacity); once full, further events are
// counted as dropped rather than recorded.
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineCapacity
	}
	return &Timeline{epoch: time.Now(), cap: capacity}
}

// Start returns the current timestamp in nanoseconds since the
// timeline's epoch — the StartNS a later Slice call closes over. Zero
// on a nil timeline.
func (t *Timeline) Start() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Slice records a span that began at startNS (a Start stamp) and ends
// now.
func (t *Timeline) Slice(worker int, kind TimelineKind, startNS int64, item int, family string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{
		Worker: worker, Kind: kind, StartNS: startNS,
		DurNS: time.Since(t.epoch).Nanoseconds() - startNS,
		Item:  item, Family: family,
	})
}

// Instant records a zero-duration event stamped now.
func (t *Timeline) Instant(worker int, kind TimelineKind, item int, family string) {
	t.instantAt(worker, kind, t.Start(), item, family)
}

// instantAt records a zero-duration event stamped atNS (a Start stamp).
func (t *Timeline) instantAt(worker int, kind TimelineKind, atNS int64, item int, family string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{Worker: worker, Kind: kind, StartNS: atNS, Item: item, Family: family})
}

func (t *Timeline) record(e TimelineEvent) {
	t.mu.Lock()
	if len(t.events) >= t.cap {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time
// (ties broken by worker, then kind), nil on a nil timeline.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]TimelineEvent(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Dropped counts events lost to the capacity bound (0 on nil).
func (t *Timeline) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports how many events are recorded (0 on nil).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
