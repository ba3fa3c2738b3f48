package sweep

import (
	"encoding/json"
	"sort"
	"testing"
)

func TestTimelineRecordsEngineWork(t *testing.T) {
	tl := NewTimeline(0)
	e := NewEngine(Options{Workers: 3, Timeline: tl})
	got := e.Grid(12, 3)
	want := Grid(12, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tracing changed the sweep output at %d: %+v != %+v", i, got[i], want[i])
		}
	}

	events := tl.Events()
	if len(events) == 0 {
		t.Fatal("timeline recorded nothing")
	}
	counts := map[TimelineKind]int{}
	items := map[int]bool{}
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Kind == TimelineItem {
			if ev.Item < 0 || ev.Item >= len(want) {
				t.Fatalf("item slice with index %d outside the grid of %d", ev.Item, len(want))
			}
			items[ev.Item] = true
		}
		if !ev.Kind.Instant() && ev.DurNS < 0 {
			t.Fatalf("negative duration: %+v", ev)
		}
		if ev.Kind.Instant() && ev.DurNS != 0 {
			t.Fatalf("instant with duration: %+v", ev)
		}
	}
	// Every work item got a slice, exactly once.
	if len(items) != len(want) || counts[TimelineItem] != len(want) {
		t.Errorf("item slices cover %d/%d items (%d slices)", len(items), len(want), counts[TimelineItem])
	}
	// Analytic/hit/miss instants agree with the engine's own counters,
	// and every cache probe was canonicalised.
	m := e.Metrics()
	if m.AnalyticHits == 0 || int64(counts[TimelineAnalytic]) != m.AnalyticHits {
		t.Errorf("timeline saw %d analytic answers, metrics say %d", counts[TimelineAnalytic], m.AnalyticHits)
	}
	if int64(counts[TimelineCacheHit]) != m.CacheHits || int64(counts[TimelineCacheMiss]) != m.CacheMisses {
		t.Errorf("timeline saw %d hits / %d misses, metrics say %d / %d",
			counts[TimelineCacheHit], counts[TimelineCacheMiss], m.CacheHits, m.CacheMisses)
	}
	if int64(counts[TimelineCanon]) != m.CacheHits+m.CacheMisses {
		t.Errorf("%d canonicalise slices for %d cache probes",
			counts[TimelineCanon], m.CacheHits+m.CacheMisses)
	}
	// Each miss simulated: one simulate slice and one find-cycle slice.
	if int64(counts[TimelineSimulate]) != m.CacheMisses || int64(counts[TimelineFindCycle]) != m.CacheMisses {
		t.Errorf("%d simulate / %d find-cycle slices for %d misses",
			counts[TimelineSimulate], counts[TimelineFindCycle], m.CacheMisses)
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].StartNS < events[j].StartNS }) {
		t.Error("Events() not sorted by start time")
	}

	s := e.Snapshot()
	if len(s.TimelineEvents) != len(events) || s.TimelineDropped != 0 {
		t.Errorf("snapshot carries %d events (dropped %d), timeline has %d",
			len(s.TimelineEvents), s.TimelineDropped, len(events))
	}
}

// Every simulation is one simulate slice around one find-cycle slice,
// whether or not the cache is on: with caching disabled the placement
// itself simulates through the same route tail. A cache-miss instant
// is the miss decision: it is stamped at the start of its simulate
// slice, not when the simulation has finished.
func TestTimelineSimulateSlicesMatchCycles(t *testing.T) {
	off := false
	for _, cacheSize := range []int{0, -1} {
		tl := NewTimeline(0)
		e := NewEngine(Options{Workers: 1, CacheSize: cacheSize, Analytic: &off, Timeline: tl})
		e.Grid(8, 2)
		counts := map[TimelineKind]int64{}
		simAt := map[[2]int64]bool{}
		for _, ev := range tl.Events() {
			counts[ev.Kind]++
			if ev.Kind == TimelineSimulate {
				simAt[[2]int64{int64(ev.Worker), ev.StartNS}] = true
			}
		}
		for _, ev := range tl.Events() {
			if ev.Kind == TimelineCacheMiss && !simAt[[2]int64{int64(ev.Worker), ev.StartNS}] {
				t.Errorf("cache-miss instant at %d ns does not open a simulate slice", ev.StartNS)
			}
		}
		m := e.Metrics()
		if m.CyclesFound == 0 || counts[TimelineSimulate] != m.CyclesFound || counts[TimelineFindCycle] != m.CyclesFound {
			t.Errorf("cache %d: %d simulate / %d find-cycle slices for %d cycles found",
				cacheSize, counts[TimelineSimulate], counts[TimelineFindCycle], m.CyclesFound)
		}
	}
}

func TestTimelineCapacityDrops(t *testing.T) {
	tl := NewTimeline(8)
	e := NewEngine(Options{Workers: 2, Timeline: tl})
	e.Grid(12, 3)
	if len(tl.events) != 8 {
		t.Errorf("recorder holds %d events, capacity is 8", len(tl.events))
	}
	if tl.Dropped() == 0 {
		t.Error("overflow not counted as dropped")
	}
	if s := e.Snapshot(); s.TimelineDropped != tl.Dropped() {
		t.Errorf("snapshot dropped %d != timeline %d", s.TimelineDropped, tl.Dropped())
	}
}

func TestTimelineNilIsNoOp(t *testing.T) {
	var tl *Timeline
	tl.Slice(0, TimelineItem, tl.Start(), 0, "")
	tl.Instant(0, TimelineCacheHit, 0, "")
	if tl.Events() != nil || tl.Dropped() != 0 {
		t.Error("nil timeline not inert")
	}
}

func TestTimelineKindJSONRoundTrip(t *testing.T) {
	for k := TimelineItem; int(k) < len(timelineKindNames); k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back TimelineKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("%v round-tripped to %v via %s", k, back, data)
		}
	}
	var k TimelineKind
	if err := json.Unmarshal([]byte(`"warp-core"`), &k); err == nil {
		t.Error("unknown kind decoded without error")
	}
}

func TestSnapshotTimelineJSONRoundTrip(t *testing.T) {
	tl := NewTimeline(0)
	e := NewEngine(Options{Workers: 2, Timeline: tl})
	e.Grid(12, 3)
	s := e.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.TimelineEvents) != len(s.TimelineEvents) {
		t.Fatalf("round trip lost events: %d != %d", len(back.TimelineEvents), len(s.TimelineEvents))
	}
	for i := range back.TimelineEvents {
		if back.TimelineEvents[i] != s.TimelineEvents[i] {
			t.Fatalf("event %d drifted: %+v != %+v", i, back.TimelineEvents[i], s.TimelineEvents[i])
		}
	}
}
