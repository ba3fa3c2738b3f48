package sweep

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ivm/internal/memsys"
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
// per simulation, none for cache hits or analytic answers, and each
// record valid and canonical. The swept pair leads its class, so it
// simulates every placement without the cache and canonicalises each
// one only to emit it: an engine seeded with the records answers every
// placement from the cache with the same value. The pair is 2·(1, 6),
// so no placement of it is its own canonical form.
func TestCacheSinkEmitsSimulationsOnce(t *testing.T) {
	sink := &recordingSink{}
	eng := NewEngine(Options{Workers: 1, CacheSink: sink})
	spec := PairSpec(13, 4, 2, 12)
	eng.SpecGrid([]ConfigSpec{spec})
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
	seeded := NewEngine(Options{Workers: 1})
	for _, rec := range sink.recs {
		if err := seeded.SeedCache(rec); err != nil {
			t.Fatal(err)
		}
	}
	sameResolves(t, "seeded from the sink", seeded, []ConfigSpec{spec})
	if sm := seeded.Metrics(); sm.CacheMisses != 0 || sm.CacheHits != m.CacheMisses {
		t.Fatalf("seeded engine: %+v; every placement should hit a sink record", sm)
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
// the same placements — every placement B resolves must come from the
// cache with values byte-identical to A's. A sweep's class leads do not
// use the cache, so both engines resolve the grid's placements one by
// one; the seeded engine's sweep still reads the cold rows.
func TestCacheRecordsSeedRoundTrip(t *testing.T) {
	a := NewEngine(Options{Workers: 2})
	batch := Placements(tripleSpecs(7, 3))
	want, err := a.ResolveBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := b.ResolveBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Path != PathCache || !got[i].BW.Equal(want[i].BW) || !reflect.DeepEqual(got[i].Canonical, want[i].Canonical) {
			t.Fatalf("seeded placement %d %+v: %+v, want %s from the cache", i, batch[i], got[i], want[i].BW)
		}
	}
	if m := b.Metrics(); m.CacheMisses != 0 {
		t.Fatalf("seeded engine still missed %d times", m.CacheMisses)
	}
	wantGrid, gotGrid := TripleGrid(7, 3), b.TripleGrid(7, 3)
	if len(gotGrid) != len(wantGrid) {
		t.Fatalf("grid sizes differ: %d vs %d", len(gotGrid), len(wantGrid))
	}
	for i := range wantGrid {
		got, want := fmt.Sprintf("%+v", gotGrid[i]), fmt.Sprintf("%+v", wantGrid[i])
		if got != want {
			t.Fatalf("seeded grid row %d differs:\n%s\nvs\n%s", i, got, want)
		}
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
	wantLong, err := a.Resolve(long)
	if err != nil {
		t.Fatal(err)
	}
	if wantLong.Path == PathCache || a.cache.Len() != before+1 {
		t.Fatalf("12-stream spec resolved on %v, cache %d entries after %d", wantLong.Path, a.cache.Len(), before)
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
	gotLong, err := c.Resolve(long)
	if err != nil {
		t.Fatal(err)
	}
	if gotLong.Path != PathCache || !gotLong.BW.Equal(wantLong.BW) || !reflect.DeepEqual(gotLong.Canonical, wantLong.Canonical) {
		t.Fatalf("seeded 12-stream spec: %+v, want %s from the cache", gotLong, wantLong.BW)
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

// TestCacheKeyFamilyRoundTrip pins the family-free key on every family
// spelling: the key holds only a policy code and the CPU layout, yet it
// stays inline and decodes to ConfigSpec.Family, CacheRecords exports
// the family by name, and seeding the export into a fresh engine
// exports it again unchanged. A sectionless family under the
// consecutive mapping is no spec at all (Validate refuses it), so its
// record is refused too, as are records whose family contradicts their
// CPU layout or whose suffixes are out of order.
func TestCacheKeyFamilyRoundTrip(t *testing.T) {
	stems := []struct {
		stem string
		spec ConfigSpec
	}{
		{"pair", ConfigSpec{M: 13, NC: 4, Streams: []Stream{{D: 1, CPU: 0}, {D: 6, B: 7, CPU: 1}}}},
		{"triple", TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2})},
		{"stream4", ConfigSpec{M: 16, NC: 4, Streams: []Stream{{D: 1}, {D: 3, B: 5, CPU: 1}, {D: 5, B: 2}, {D: 7, B: 9, CPU: 1}}}},
		{"section", ConfigSpec{M: 16, S: 4, NC: 4, Streams: []Stream{{D: 1}, {D: 3, B: 6}}}},
		{"section3", ConfigSpec{M: 12, S: 3, NC: 3, Streams: []Stream{{D: 1}, {D: 5, B: 4}, {D: 7, B: 2, CPU: 1}}}},
	}
	policies := []struct {
		suffix   string
		priority memsys.PriorityRule
		mapping  memsys.SectionMapping
	}{
		{"", memsys.FixedPriority, memsys.CyclicSections},
		{"-consec", memsys.FixedPriority, memsys.ConsecutiveSections},
		{"-cyc", memsys.CyclicPriority, memsys.CyclicSections},
		{"-rrcpu", memsys.RoundRobinPerCPU, memsys.CyclicSections},
		{"-consec-rrcpu", memsys.RoundRobinPerCPU, memsys.ConsecutiveSections},
	}
	for _, st := range stems {
		for _, pol := range policies {
			name := st.stem + pol.suffix
			spec := st.spec.WithPolicy(pol.priority, pol.mapping)
			t.Run(name, func(t *testing.T) {
				rec := CacheRecord{Family: name, M: spec.M, S: spec.S, NC: spec.NC,
					CPUs: make([]int, len(spec.Streams)), Vec: make([]int, 2*len(spec.Streams)), BW: rat.New(3, 2)}
				for i, s := range spec.Streams {
					rec.CPUs[i] = s.CPU
				}
				if spec.S == 0 && pol.mapping == memsys.ConsecutiveSections {
					if err := NewEngine(Options{}).SeedCache(rec); err == nil {
						t.Fatalf("record of family %q on a sectionless memory seeded", name)
					}
					return
				}
				if got := spec.Family(); got != name {
					t.Fatalf("spec family %q, want %q", got, name)
				}
				w := &worker{e: NewEngine(Options{Workers: 1})}
				cs := w.compile(spec)
				k := keyAt(cs, cs.b)
				if got := string(parseKey(k.bytes()).appendFamily(nil)); got != name {
					t.Fatalf("%d-byte key decodes to family %q, want %q", k.n, got, name)
				}
				w.e.cache.put(&cs.key, rat.New(3, 2))
				records := w.e.CacheRecords()
				if len(records) != 1 || records[0].Family != name || !reflect.DeepEqual(records[0].CPUs, rec.CPUs) {
					t.Fatalf("exported %+v, want one %q record on CPUs %v", records, name, rec.CPUs)
				}
				seeded := NewEngine(Options{Workers: 1})
				if err := seeded.SeedCache(records[0]); err != nil {
					t.Fatal(err)
				}
				if again := seeded.CacheRecords(); !reflect.DeepEqual(again, records) {
					t.Fatalf("re-exported %+v, want %+v", again, records)
				}

				// The family must be the one the CPU layout and policy
				// make: one stream fewer names another family.
				n := len(rec.CPUs) - 1
				moved := records[0]
				moved.CPUs, moved.Vec = moved.CPUs[:n], append(moved.Vec[:n:n], moved.Vec[n+1:2*n+1]...)
				outOfOrder := records[0]
				outOfOrder.Family = st.stem + "-cyc-consec"
				for _, bad := range []CacheRecord{moved, outOfOrder} {
					if err := seeded.SeedCache(bad); err == nil {
						t.Errorf("record of family %q on s=%d CPUs %v seeded", bad.Family, bad.S, bad.CPUs)
					}
				}
			})
		}
	}
}
