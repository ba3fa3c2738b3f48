package sweep

import (
	"fmt"
	"sync"
	"testing"

	"ivm/internal/rat"
)

// recordingSink collects CacheSink emissions for inspection.
type recordingSink struct {
	mu   sync.Mutex
	recs []CacheRecord
}

// Put implements CacheSink.
func (s *recordingSink) Put(rec CacheRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// TestCacheSinkEmitsSimulationsOnce pins the sink contract: one record
// per simulated canonical orbit, none for cache hits or analytic
// answers, and each record valid and canonical (re-seeding it
// reproduces the cached value).
func TestCacheSinkEmitsSimulationsOnce(t *testing.T) {
	sink := &recordingSink{}
	eng := NewEngine(Options{Workers: 1, CacheSink: sink})
	eng.SpecGrid([]ConfigSpec{PairSpec(13, 4, 1, 6)})
	m := eng.Metrics()
	if m.CacheMisses == 0 {
		t.Fatal("sweep had no misses; sink test needs simulations")
	}
	if got, want := int64(len(sink.recs)), m.CacheMisses; got != want {
		t.Fatalf("sink saw %d records, engine missed %d times", got, want)
	}
	for i, rec := range sink.recs {
		if err := rec.Validate(); err != nil {
			t.Fatalf("sink record %d: %v", i, err)
		}
		if rec.Family != "pair" || rec.M != 13 || rec.NC != 4 {
			t.Fatalf("sink record %d: %+v", i, rec)
		}
	}

	// An analytically gated sweep emits nothing: the gate answers
	// before the cache.
	gatedSink := &recordingSink{}
	gated := NewEngine(Options{Workers: 1, CacheSink: gatedSink})
	gated.SpecGrid([]ConfigSpec{PairSpec(16, 4, 1, 2)})
	if gm := gated.Metrics(); gm.AnalyticHits == 0 {
		t.Fatal("expected the 16/4 1(+)2 pair to gate analytically")
	}
	if len(gatedSink.recs) != 0 {
		t.Fatalf("analytic sweep emitted %d cache records", len(gatedSink.recs))
	}
}

// TestCacheRecordsSeedRoundTrip pins the persistence seam end to end
// in RAM: drain engine A's cache, seed engine B with it, and resolve
// the same work — every placement B resolves must come from the cache
// (or the gate) with values byte-identical to A's.
func TestCacheRecordsSeedRoundTrip(t *testing.T) {
	a := NewEngine(Options{Workers: 2})
	wantGrid := a.TripleGrid(7, 3)
	records := a.CacheRecords()
	if len(records) == 0 {
		t.Fatal("engine A cached nothing")
	}
	for i, rec := range records {
		if err := rec.Validate(); err != nil {
			t.Fatalf("exported record %d: %v", i, err)
		}
		if i > 0 && !records[i-1].less(rec) {
			t.Fatalf("export not strictly sorted at %d: %+v !< %+v", i, records[i-1], rec)
		}
	}

	b := NewEngine(Options{Workers: 2})
	for _, rec := range records {
		if err := b.SeedCache(rec); err != nil {
			t.Fatal(err)
		}
	}
	gotGrid := b.TripleGrid(7, 3)
	if len(gotGrid) != len(wantGrid) {
		t.Fatalf("grid sizes differ: %d vs %d", len(gotGrid), len(wantGrid))
	}
	for i := range wantGrid {
		got, want := fmt.Sprintf("%+v", gotGrid[i]), fmt.Sprintf("%+v", wantGrid[i])
		if got != want {
			t.Fatalf("seeded grid row %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	if m := b.Metrics(); m.CacheMisses != 0 {
		t.Fatalf("seeded engine still missed %d times", m.CacheMisses)
	}
}

// TestSeedCacheRejectsBadRecords pins the seeding guard rails.
func TestSeedCacheRejectsBadRecords(t *testing.T) {
	eng := NewEngine(Options{Workers: 1})
	bad := []CacheRecord{
		{},
		{Family: "pair", M: 13, NC: 4, CPUs: []int{0, 1}, Vec: []int{1, 6, 0}}, // vec too short
		{Family: "pair", M: 0, NC: 4, CPUs: []int{0, 1}, Vec: []int{1, 6, 0, 0}},
		{Family: "pair", M: 13, NC: 4, CPUs: []int{0, 1}, Vec: []int{1, 6, 0, 0}}, // zero-den BW
	}
	for i, rec := range bad {
		if err := eng.SeedCache(rec); err == nil {
			t.Errorf("bad record %d seeded without error", i)
		}
	}
	disabled := NewEngine(Options{CacheSize: -1})
	ok := CacheRecord{Family: "pair", M: 13, NC: 4, CPUs: []int{0, 1},
		Vec: []int{1, 6, 0, 0}, BW: rat.New(1, 1)}
	if err := disabled.SeedCache(ok); err == nil {
		t.Error("cache-disabled engine accepted a seed")
	}
	if err := eng.SeedCache(ok); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
}
