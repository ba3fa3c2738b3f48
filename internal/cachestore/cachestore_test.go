package cachestore

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ivm/internal/rat"
	"ivm/internal/sweep"
)

// rec builds a valid test record whose coordinates derive from seed so
// distinct seeds get distinct content addresses.
func rec(seed int) sweep.CacheRecord {
	return sweep.CacheRecord{
		Family: "pair",
		M:      13,
		NC:     4,
		CPUs:   []int{0, 1},
		Vec:    []int{1 + seed%12, 6, seed % 13, 0},
		BW:     rat.New(int64(1+seed), int64(2+seed)),
	}
}

// TestStoreRoundTrip pins the basic lifecycle: Put, Close, Open sees
// every record byte-identically and in log order.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Health().Records; len(s.Records()) != 0 || n != 0 {
		t.Fatalf("fresh store not empty: %d frames", n)
	}
	want := []sweep.CacheRecord{rec(0), rec(1), rec(2), rec(3)}
	for _, r := range want {
		s.Put(r)
	}
	if n := s.Health().Records; n != len(want) {
		t.Fatalf("store holds %d frames, put %d", n, len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if skipped, bytes := reopened.Skipped(); skipped != 0 || bytes != 0 {
		t.Fatalf("clean log reported corruption: %d records, %d bytes", skipped, bytes)
	}
	if got := reopened.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestStoreDeduplicates pins content addressing, which Open applies: a
// repeated frame is dropped from Records and counted, and the log is
// left as it is while repeats stay within 1/compactShare of its
// frames. Replaying the whole log into itself passes that share, so
// the next Open compacts the log back to its byte size before the
// replay: no duplicate survives a reopen past the threshold. A record
// differing in one coordinate is distinct.
func TestStoreDeduplicates(t *testing.T) {
	dir := t.TempDir()
	other := rec(0)
	other.Vec = append([]int(nil), other.Vec...)
	other.Vec[3] = 5
	distinct := []sweep.CacheRecord{rec(0), other, rec(1), rec(2)}
	s := reopen(t, dir, nil)
	for _, r := range distinct {
		s.Put(r)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	size := logSize(t, dir)
	s.Put(rec(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	grown := logSize(t, dir)
	s = reopen(t, dir, nil)

	// One repeat in five frames: dropped and counted, the log untouched.
	if got := s.Records(); !reflect.DeepEqual(got, distinct) {
		t.Fatalf("records:\n got %+v\nwant %+v", got, distinct)
	}
	if h := s.Health(); h.Records != 5 || h.DuplicateRecords != 1 || h.Compacted || logSize(t, dir) != grown {
		t.Fatalf("Health with one repeat: %+v", h)
	}

	// Replaying the log into itself: 5 repeats in 9 frames.
	for _, r := range s.Records() {
		s.Put(r)
	}
	s = reopen(t, dir, s)
	if h := s.Health(); h.Records != len(distinct) || h.DuplicateRecords != 5 || !h.Compacted {
		t.Fatalf("Health after replay: %+v", h)
	}
	if got := s.Records(); !reflect.DeepEqual(got, distinct) {
		t.Fatalf("compacted records:\n got %+v\nwant %+v", got, distinct)
	}
	if got := logSize(t, dir); got != size {
		t.Fatalf("compacted log is %d bytes, the distinct frames %d", got, size)
	}
	s = reopen(t, dir, s)
	defer s.Close()
	if h := s.Health(); h.Records != len(distinct) || h.DuplicateRecords != 0 || h.Compacted {
		t.Fatalf("Health after compaction: %+v", h)
	}
}

// TestStoreEngineDuplicate drives a repeat through a real engine: an
// orbit evicted from the engine's cache is simulated again and the
// store, its sink, appends it again. The reopened store seeds one cache
// entry, counts one duplicate and, past 1/compactShare, compacts the
// log to one frame.
func TestStoreEngineDuplicate(t *testing.T) {
	var spec sweep.ConfigSpec
	probe := sweep.NewEngine(sweep.Options{Workers: 1})
	for _, p := range sweep.Placements([]sweep.ConfigSpec{sweep.PairSpec(13, 4, 1, 6)}) {
		if r, err := probe.Resolve(p); err != nil {
			t.Fatal(err)
		} else if r.Path == sweep.PathSimPacked || r.Path == sweep.PathSimScalar {
			spec = p
			break
		}
	}
	if spec.M == 0 {
		t.Fatal("no placement of the (13, 4) pair 1 ⊕ 6 simulates")
	}

	dir := t.TempDir()
	s := reopen(t, dir, nil)
	// One entry per shard: seeding a record into the orbit's shard
	// evicts it without an append (seeds are not emitted).
	a := sweep.NewEngine(sweep.Options{Workers: 1, CacheSize: 16, CacheSink: s})
	first, err := a.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; a.Metrics().CacheMisses < 2; i++ {
		if i == 1000 {
			t.Fatal("seeding never evicted the orbit")
		}
		if err := a.SeedCache(sweep.CacheRecord{Family: "pair", M: 13, NC: 4,
			CPUs: []int{0, 1}, Vec: []int{100 + i, 1, 0, 0}, BW: rat.New(1, 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Resolve(spec); err != nil {
			t.Fatal(err)
		}
	}
	if h := s.Health(); h.Records != 2 {
		t.Fatalf("store appended %d frames for one orbit simulated twice", h.Records)
	}

	s = reopen(t, dir, s)
	defer s.Close()
	if h := s.Health(); len(s.Records()) != 1 || h.DuplicateRecords != 1 || !h.Compacted || h.Records != 1 {
		t.Fatalf("reopened store: %d records, %+v", len(s.Records()), h)
	}
	b := sweep.NewEngine(sweep.Options{Workers: 1})
	for _, r := range s.Records() {
		if err := b.SeedCache(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Metrics().CacheEntries; n != 1 {
		t.Fatalf("store seeded %d cache entries, want 1", n)
	}
	if r, err := b.Resolve(spec); err != nil || r.Path != sweep.PathCache || !r.BW.Equal(first.BW) {
		t.Fatalf("seeded engine: %s on %v (%v), cold %s", r.BW, r.Path, err, first.BW)
	}
}

// TestStorePutRetainsNothing pins what Put keeps: nothing per record.
// The log's write buffer is allocated by Open, so the heap retained
// over 1<<16 distinct puts stays under a byte per put.
func TestStorePutRetainsNothing(t *testing.T) {
	const n = 1 << 16
	s := reopen(t, t.TempDir(), nil)
	defer s.Close()
	before := liveHeap()
	for i := 0; i < n; i++ {
		s.Put(sweep.CacheRecord{Family: "stream4", M: 16, NC: 4, CPUs: []int{0, 1, 0, 1},
			Vec: []int{1, 3, 5, 7, i % 16, i / 16 % 16, i / 256 % 16, i / 4096}, BW: rat.New(1, 2)})
	}
	per := float64(liveHeap()-before) / n
	t.Logf("%.2f B retained per put", per)
	if per >= 1 {
		t.Errorf("store retains %.2f B per put, want under 1", per)
	}
	runtime.KeepAlive(s)
}

// TestStoreRejectsInvalid pins the sink contract: an invalid record is
// not appended and the failure surfaces through Health and Sync, not a
// panic on the engine's hot path.
func TestStoreRejectsInvalid(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(sweep.CacheRecord{Family: "pair", M: 13, NC: 4, CPUs: []int{0, 1}, Vec: []int{1}})
	if n := s.Health().Records; n != 0 {
		t.Fatalf("invalid record appended: %d frames", n)
	}
	if h := s.Health(); h.Err == "" {
		t.Fatal("invalid put left Health clean")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync did not surface the put error")
	}
	// The error is one-shot: once reported, the store is healthy again.
	if err := s.Sync(); err != nil {
		t.Fatalf("second Sync still failing: %v", err)
	}
	if h := s.Health(); h.Err != "" {
		t.Fatalf("Health still dirty after Sync: %q", h.Err)
	}
}

// TestStoreTruncatedTailRecovery pins crash recovery: a partial frame
// at the tail is counted, truncated away, and the healthy prefix plus
// all later appends stay readable.
func TestStoreTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := []sweep.CacheRecord{rec(0), rec(1)}
	for _, r := range keep {
		s.Put(r)
	}
	s.Put(rec(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame: drop its final 3 bytes, as a crash mid-write
	// would.
	full := logSize(t, dir)
	if err := os.Truncate(filepath.Join(dir, LogName), full-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("truncated tail failed Open: %v", err)
	}
	skipped, bytes := s2.Skipped()
	if skipped != 1 || bytes <= 0 {
		t.Fatalf("Skipped() = %d, %d; want 1 torn frame", skipped, bytes)
	}
	if got := s2.Records(); !reflect.DeepEqual(got, keep) {
		t.Fatalf("healthy prefix lost:\n got %+v\nwant %+v", got, keep)
	}
	if h := s2.Health(); h.SkippedRecords != 1 || h.TruncatedBytes != bytes || h.Err != "" {
		t.Fatalf("Health after recovery: %+v", h)
	}
	// Appends after recovery land on the truncated log and survive a
	// clean reopen.
	s2.Put(rec(7))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if skipped, bytes := s3.Skipped(); skipped != 0 || bytes != 0 {
		t.Fatalf("log still corrupt after recovery: %d records, %d bytes", skipped, bytes)
	}
	if got, want := s3.Records(), append(keep, rec(7)); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery append lost:\n got %+v\nwant %+v", got, want)
	}
}

// TestStoreCRCCorruption pins the checksum: flipping one payload byte
// invalidates that frame and everything after it, keeping the prefix.
func TestStoreCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(rec(0))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	mid := logSize(t, dir) // offset where the second frame will start
	s.Put(rec(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mid+8] ^= 0xff // a byte inside the second frame's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupt frame failed Open: %v", err)
	}
	defer s2.Close()
	if skipped, _ := s2.Skipped(); skipped != 1 {
		t.Fatalf("Skipped() = %d, want the corrupted frame", skipped)
	}
	if got, want := s2.Records(), []sweep.CacheRecord{rec(0)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix before corruption lost:\n got %+v\nwant %+v", got, want)
	}
}

// TestStoreBadMagic pins the header check: a file that is not a cache
// log errors instead of being silently truncated away.
func TestStoreBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LogName), []byte("definitely not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("foreign file opened as a cache log")
	}
}

// TestStoreEngineSeam pins the full persistence loop with a real
// engine: sweep with the store as sink, reopen, seed a fresh engine,
// and the seeded engine answers the sweep's placements, resolved one
// by one, without simulating (a sweep's class lead does not consult the
// cache, so the seeded sweep itself is held only to the first's rows).
func TestStoreEngineSeam(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := sweep.NewEngine(sweep.Options{Workers: 2, CacheSink: s})
	specs := []sweep.ConfigSpec{sweep.PairSpec(13, 4, 1, 6)}
	want := a.SpecGrid(specs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Metrics().CacheMisses == 0 {
		t.Fatal("sweep never simulated; seam test needs cache traffic")
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := len(s2.Records()), int(a.Metrics().CacheMisses); got != want {
		t.Fatalf("store reloaded %d records, engine simulated %d orbits", got, want)
	}
	b := sweep.NewEngine(sweep.Options{Workers: 2})
	for _, r := range s2.Records() {
		if err := b.SeedCache(r); err != nil {
			t.Fatal(err)
		}
	}
	batch := sweep.Placements(specs)
	res, err := b.ResolveBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sweep.SpecGrid(batch) {
		if res[i].Path != sweep.PathCache || !res[i].BW.Equal(c.SimMin) {
			t.Fatalf("seeded placement %d: %s on %v, cold %s", i, res[i].BW, res[i].Path, c.SimMin)
		}
	}
	if m := b.Metrics(); m.CacheMisses != 0 {
		t.Fatalf("warm engine still simulated %d orbits", m.CacheMisses)
	}
	if got := b.SpecGrid(specs); !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded sweep differs:\n got %+v\nwant %+v", got, want)
	}
}

// logSize returns the store log's current size in bytes.
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// reopen closes s (when non-nil) and opens the store in dir again.
func reopen(t *testing.T, dir string, s *Store) *Store {
	t.Helper()
	if s != nil {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
