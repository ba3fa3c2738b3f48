package sweep

import (
	"fmt"
	"reflect"
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

	// A key too long to hold inline spills to a string: twelve streams
	// on a 1000-bank memory. It must export and seed like any other.
	long := ConfigSpec{M: 1000, NC: 2, Streams: make([]Stream, 12)}
	for i := range long.Streams {
		long.Streams[i] = Stream{D: 250 * (1 + i%2), B: 97 * i % 1000, CPU: i % 3}
	}
	cs := (&worker{e: a}).compile(long)
	cs.pack(cs.b)
	if _, inline := inlineKey(cs.key.buf); inline {
		t.Fatalf("%d-byte key of the 12-stream spec held inline", len(cs.key.buf))
	}
	before := len(a.CacheRecords())
	want, err := a.Resolve(long)
	if err != nil {
		t.Fatal(err)
	}
	if want.Path == PathCache || a.cache.Len() != before+1 {
		t.Fatalf("12-stream spec resolved on %v, cache %d entries after %d", want.Path, a.cache.Len(), before)
	}
	records = a.CacheRecords()
	c := NewEngine(Options{Workers: 1})
	for _, rec := range records {
		if err := c.SeedCache(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(c.CacheRecords(), records) {
		t.Fatal("records of a seeded engine differ from the records it was seeded with")
	}
	got, err := c.Resolve(long)
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != PathCache || !got.BW.Equal(want.BW) || !reflect.DeepEqual(got.Canonical, want.Canonical) {
		t.Fatalf("seeded 12-stream spec: %+v, want %s from the cache", got, want.BW)
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
