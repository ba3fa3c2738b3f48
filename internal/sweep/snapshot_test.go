package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestSnapshotAccounting(t *testing.T) {
	eng := NewEngine(Options{Workers: 3})
	res := eng.Grid(16, 4)
	snap := eng.Snapshot()

	if snap.Metrics.PairsSwept == 0 {
		t.Fatal("no pairs recorded")
	}
	var items, steps, busy int64
	for _, w := range snap.PerWorker {
		items += w.Items
		steps += w.Steps
		busy += w.BusyNS
		if w.Utilization < 0 || w.Utilization > 1 {
			t.Errorf("worker %d utilization %v out of [0,1]", w.Worker, w.Utilization)
		}
	}
	if want := int64(len(res)); items != want {
		t.Errorf("per-worker items sum %d, grid has %d cells", items, want)
	}
	if steps != snap.Metrics.StepsSimulated {
		t.Errorf("per-worker steps %d != metrics %d", steps, snap.Metrics.StepsSimulated)
	}
	if snap.WallNS <= 0 {
		t.Errorf("wall time %d, want > 0", snap.WallNS)
	}
	if snap.CycleDetectNS <= 0 {
		t.Errorf("cycle-detect time %d, want > 0", snap.CycleDetectNS)
	}
	// Every search runs inside a timed work item, and both are timed on
	// the monotonic clock, so the searches cannot outlast the items.
	if snap.CycleDetectNS > busy {
		t.Errorf("cycle-detect time %d exceeds the workers' busy time %d", snap.CycleDetectNS, busy)
	}
	if snap.Metrics.CyclesFound > 0 && snap.MeanCycleDetectNS <= 0 {
		t.Errorf("mean cycle-detect latency %v, want > 0", snap.MeanCycleDetectNS)
	}
	hits, misses := snap.Metrics.CacheHits, snap.Metrics.CacheMisses
	if hits+misses > 0 {
		want := float64(hits) / float64(hits+misses)
		if snap.CacheHitRate != want {
			t.Errorf("cache hit rate %v, want %v", snap.CacheHitRate, want)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	eng := NewEngine(Options{Workers: 2})
	eng.Grid(8, 2)
	snap := eng.Snapshot()

	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, snap)
	}
}

func TestSnapshotSequentialEngine(t *testing.T) {
	eng := NewEngine(Options{Workers: 1})
	eng.Grid(8, 2)
	snap := eng.Snapshot()
	if len(snap.PerWorker) != 1 {
		t.Fatalf("sequential engine reports %d workers", len(snap.PerWorker))
	}
	if snap.PerWorker[0].Items == 0 {
		t.Error("worker 0 did no items")
	}
}
