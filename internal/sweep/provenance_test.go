package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// Conservation: every placement the engine resolves takes exactly one
// path, so per family analytic + cache hits + simulations must equal
// the placements the sweeps visited, counted independently of the
// engine (want, keyed by family). The Metrics derived from the same
// tally must agree with the provenance view path by path.
func checkConservation(t *testing.T, eng *Engine, want map[string]int64) {
	t.Helper()
	snap := eng.Snapshot()
	if snap.Provenance == nil {
		t.Fatal("snapshot lacks provenance despite attached recorder")
	}
	fams := snap.Provenance.Families
	for name, n := range want {
		f := fams[name]
		if got := f.Analytic + f.CacheHits + f.SimScalar + f.SimPacked; got != n {
			t.Errorf("%s: analytic %d + cache %d + sim %d+%d = %d, want %d placements",
				name, f.Analytic, f.CacheHits, f.SimScalar, f.SimPacked, got, n)
		}
		if f.Resolved != n {
			t.Errorf("%s: resolved %d, want %d placements", name, f.Resolved, n)
		}
	}
	for name, f := range fams {
		if _, ok := want[name]; !ok {
			t.Errorf("family %s resolved %d placements no sweep visited", name, f.Resolved)
		}
		em := snap.Metrics.Families[name]
		misses := int64(0)
		if eng.cache != nil {
			misses = f.SimScalar + f.SimPacked
		}
		if em.Analytic != f.Analytic || em.Hits != f.CacheHits || em.Misses != misses {
			t.Errorf("%s: metrics %+v disagree with provenance %+v", name, em, f)
		}
	}
}

// specPlacements counts the placements a sweep of specs visits, per
// family: m starts for every swept stream of a spec.
func specPlacements(specs []ConfigSpec) map[string]int64 {
	out := make(map[string]int64)
	for _, spec := range specs {
		n := int64(1)
		for _, st := range spec.Streams {
			if st.Sweep {
				n *= int64(spec.M)
			}
		}
		out[spec.Family()] += n
	}
	return out
}

func TestProvenanceConservationPairs(t *testing.T) {
	eng := NewEngine(Options{Workers: 3, Provenance: NewProvenance(0)})
	const m, nc = 13, 4
	pairs := eng.Grid(m, nc)
	// Every pair sweeps its m starts.
	checkConservation(t, eng, map[string]int64{"pair": int64(len(pairs) * m)})
}

func TestProvenanceConservationTriples(t *testing.T) {
	eng := NewEngine(Options{Workers: 3, Provenance: NewProvenance(0)})
	const m = 7
	triples := eng.TripleGrid(m, 2)
	// Every triple sweeps all m^2 relative placements.
	checkConservation(t, eng, map[string]int64{"triple": int64(len(triples) * m * m)})
}

func TestProvenanceConservationSections(t *testing.T) {
	eng := NewEngine(Options{Workers: 3, Provenance: NewProvenance(0)})
	const m = 12
	var want int64
	for _, r := range eng.SectionGrid(m, 3, 3) {
		// m starts, plus the constructed conflict-free start when the
		// section theorems predict one.
		want += m
		if r.TheoryFree {
			want++
		}
	}
	checkConservation(t, eng, map[string]int64{"section": want})
}

func TestProvenanceConservationStream4(t *testing.T) {
	eng := NewEngine(Options{Workers: 3, Provenance: NewProvenance(0)})
	const m = 4
	tuples := eng.NStreamGrid(m, 1, 4)
	checkConservation(t, eng, map[string]int64{"stream4": int64(len(tuples) * m * m * m)})
	f := eng.Snapshot().Provenance.Families["stream4"]
	// The miss-attribution view must name the top unexplained orbits
	// of the worst family — that is the view's whole point.
	if f.SimScalar+f.SimPacked > 0 && len(f.UnexplainedOrbits) == 0 {
		t.Error("stream4 simulated placements but reported no unexplained orbits")
	}
}

// Conservation must also hold when caching is disabled (everything
// simulates) and when the analytic gate is off.
func TestProvenanceConservationNoCacheNoGate(t *testing.T) {
	off := false
	eng := NewEngine(Options{Workers: 2, CacheSize: -1, Analytic: &off, Provenance: NewProvenance(0), PackedKernel: &off})
	eng.Grid(8, 2)
	checkConservation(t, eng, specPlacements(GridSpecs(8, 0, 2)))
	f := eng.Snapshot().Provenance.Families["pair"]
	if f.Analytic != 0 || f.CacheHits != 0 || f.SimPacked != 0 {
		t.Errorf("gate+cache off must simulate on the scalar kernel only: %+v", f)
	}
	if f.SimScalar == 0 || f.SimScalar != f.Resolved {
		t.Errorf("sim-scalar %d must carry all %d resolutions", f.SimScalar, f.Resolved)
	}
}

// The theorem table must attribute analytic answers to the gate's
// theorem identifiers and sum to the analytic path count.
func TestProvenanceTheoremAttribution(t *testing.T) {
	eng := NewEngine(Options{Provenance: NewProvenance(0)})
	eng.Grid(16, 4)
	f := eng.Snapshot().Provenance.Families["pair"]
	if f.Analytic == 0 {
		t.Fatal("theorem-dense grid produced no analytic answers")
	}
	var sum int64
	for id, n := range f.Theorems {
		switch id {
		case "theorem-2", "theorem-3", "eq-29":
		default:
			t.Errorf("unknown theorem id %q", id)
		}
		sum += n
	}
	if sum != f.Analytic {
		t.Errorf("theorem hits sum %d != analytic %d", sum, f.Analytic)
	}
}

// Orbit accounting: histogram placements must equal hits+misses with
// orbit rows, singleton count must match the size-1 bucket, and the
// top-orbit list must be sorted by explained placements.
func TestProvenanceOrbitAccounting(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, Provenance: NewProvenance(0)})
	eng.Grid(13, 4)
	f := eng.Snapshot().Provenance.Families["pair"]
	var placements, orbits int64
	for _, b := range f.OrbitSizes {
		placements += b.Placements
		orbits += b.Orbits
		if b.Lo == 1 && b.Orbits != f.SingletonOrbits {
			t.Errorf("size-1 bucket %d != singleton orbits %d", b.Orbits, f.SingletonOrbits)
		}
	}
	if orbits != f.Orbits {
		t.Errorf("histogram orbits %d != orbits %d", orbits, f.Orbits)
	}
	if placements != f.CacheHits+f.SimScalar+f.SimPacked {
		t.Errorf("histogram placements %d != cache+sim %d", placements, f.CacheHits+f.SimScalar+f.SimPacked)
	}
	for i := 1; i < len(f.TopOrbits); i++ {
		if f.TopOrbits[i].Size > f.TopOrbits[i-1].Size {
			t.Errorf("top orbits unsorted at %d", i)
		}
	}
	for _, o := range f.TopOrbits {
		if o.Size != o.Hits+o.Misses {
			t.Errorf("orbit %s: size %d != hits+misses %d", o.Label(), o.Size, o.Hits+o.Misses)
		}
	}
}

// The snapshot must be deterministic across identical runs (map
// iteration must not leak into the ordered views).
func TestProvenanceSnapshotDeterministic(t *testing.T) {
	// Single worker: with a parallel pool two slots can race to miss
	// the same canonical key, making the hit/miss split (legitimately)
	// schedule-dependent.
	run := func() ProvenanceSnapshot {
		eng := NewEngine(Options{Workers: 1, Provenance: NewProvenance(0)})
		eng.Grid(12, 3)
		eng.TripleGrid(7, 2)
		return *eng.Snapshot().Provenance
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("snapshots differ across identical runs")
	}
	if a.Table() != b.Table() {
		t.Error("tables differ across identical runs")
	}
}

// The orbit capacity bound must drop per-orbit rows, count them, and
// leave the exact path counts untouched.
func TestProvenanceOrbitCapacity(t *testing.T) {
	eng := NewEngine(Options{Workers: 1, Provenance: NewProvenance(4)})
	pairs := eng.Grid(13, 4)
	snap := *eng.Snapshot().Provenance
	if snap.DroppedOrbits == 0 {
		t.Fatal("tiny capacity dropped nothing")
	}
	var orbits int64
	for _, f := range snap.Families {
		orbits += f.Orbits
	}
	if orbits > 4 {
		t.Errorf("tracked %d orbits past capacity 4", orbits)
	}
	checkConservation(t, eng, map[string]int64{"pair": int64(len(pairs) * 13)})
}

// JSON: the provenance snapshot must round-trip inside the engine
// snapshot, and be absent when no recorder was attached.
func TestProvenanceSnapshotJSON(t *testing.T) {
	eng := NewEngine(Options{Provenance: NewProvenance(0)})
	eng.Grid(8, 2)
	s := eng.Snapshot()
	if s.Provenance == nil {
		t.Fatal("snapshot lacks provenance despite attached recorder")
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Provenance, s.Provenance) {
		t.Error("provenance drifted through JSON")
	}
	plain := NewEngine(Options{})
	plain.Grid(8, 2)
	if plain.Snapshot().Provenance != nil {
		t.Error("detached engine snapshot carries provenance")
	}
}

func TestProvenanceCSV(t *testing.T) {
	eng := NewEngine(Options{Provenance: NewProvenance(0)})
	eng.Grid(13, 4)
	var buf bytes.Buffer
	if err := eng.Snapshot().Provenance.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "family,kind,label,count,placements,clocks" {
		t.Errorf("bad CSV header %q", lines[0])
	}
	for _, want := range []string{"pair,path,analytic", "pair,path,cache", "pair,path,sim-packed", "pair,theorem,", "pair,orbit_size,"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV lacks %q rows", want)
		}
	}
}

// The attribution table must name the headline views.
func TestProvenanceTable(t *testing.T) {
	eng := NewEngine(Options{Provenance: NewProvenance(0)})
	eng.Grid(13, 4)
	out := eng.Snapshot().Provenance.Table()
	for _, want := range []string{"path split", "analytic attribution", "orbit sizes", "unexplained orbits", "pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution table lacks %q:\n%s", want, out)
		}
	}
}

// A detached (nil) provenance recorder must be free: no allocations
// from any record call on the hot path, mirroring the detached-tracer
// guarantee of internal/obs/overhead_test.go.
func TestDetachedProvenanceAllocatesNothing(t *testing.T) {
	var p *Provenance
	cs := (&worker{e: NewEngine(Options{})}).compile(PairSpec(13, 4, 1, 6))
	cs.load([]int{0, 7})
	if allocs := testing.AllocsPerRun(500, func() {
		p.observe(cs, Resolution{Path: PathCache})
		p.observe(cs, Resolution{Path: PathSimPacked, CycleLength: 13, Clocks: 26})
	}); allocs != 0 {
		t.Errorf("detached provenance allocates %.1f objects/record, want 0", allocs)
	}
}

// An attached recorder allocates only for a new orbit row: once a
// placement's row exists, resolving it again from the cache records
// the hit without allocating (ivmserved always attaches one).
func TestRecordedCacheHitAllocs(t *testing.T) {
	prov := NewProvenance(0)
	w := &worker{e: NewEngine(Options{Workers: 1, Provenance: prov})}
	cs := w.compile(TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2}))
	w.resolve(cs, cs.b, nil) // simulate, adding the orbit's row
	if r := w.resolve(cs, cs.b, nil); r.Path != PathCache {
		t.Fatalf("repeated census placement resolved on %v", r.Path)
	}
	if n := testing.AllocsPerRun(100, func() { w.resolve(cs, cs.b, nil) }); n != 0 {
		t.Errorf("recorded cache hit allocates %v per op, want 0", n)
	}
	w.flushTally()
	if got := prov.view(w.e.Tally()).Families[cs.family]; got.Orbits != 1 || got.TopOrbits[0].Hits != 102 {
		t.Errorf("recorded hits: %+v, want one orbit hit 102 times", got)
	}
}

// Two stream4 specs with equal streams on different CPU layouts are
// two simulations and two cache entries, so they must be two orbits,
// each observed once.
func TestProvenanceSeparatesCPULayouts(t *testing.T) {
	eng := NewEngine(Options{Workers: 1, Provenance: NewProvenance(0)})
	spec := func(cpus ...int) ConfigSpec {
		s := ConfigSpec{M: 16, NC: 4}
		for i, db := range [][2]int{{1, 0}, {3, 5}, {5, 2}, {7, 9}} {
			s.Streams = append(s.Streams, Stream{D: db[0], B: db[1], CPU: cpus[i]})
		}
		return s
	}
	for _, s := range []ConfigSpec{spec(0, 0, 1, 1), spec(0, 1, 0, 1)} {
		if r, err := eng.Resolve(s); err != nil || r.Path == PathCache {
			t.Fatalf("resolve %v: path %v, err %v; want a simulation", s.Streams, r.Path, err)
		}
	}
	f := eng.Snapshot().Provenance.Families["stream4"]
	if f.Orbits != 2 || f.SingletonOrbits != 2 {
		t.Fatalf("orbits %d, singletons %d; want 2 singleton orbits", f.Orbits, f.SingletonOrbits)
	}
	if len(f.UnexplainedOrbits) != 2 {
		t.Fatalf("unexplained orbits %+v, want 2 rows", f.UnexplainedOrbits)
	}
	a, b := f.UnexplainedOrbits[0], f.UnexplainedOrbits[1]
	if a.Misses != 1 || b.Misses != 1 || reflect.DeepEqual(a.CPUs, b.CPUs) {
		t.Errorf("rows %+v and %+v: want one miss each on distinct CPU layouts", a, b)
	}
}

// An orbit whose key is too long to hold inline (twelve streams on a
// 1000-bank memory) keeps its row in the shard's spill map: a repeat
// hits it, and the snapshot decodes its CPU layout.
func TestProvenanceSpilledKey(t *testing.T) {
	eng := NewEngine(Options{Workers: 1, Provenance: NewProvenance(0)})
	long := ConfigSpec{M: 1000, NC: 2, Streams: make([]Stream, 12)}
	cpus := make([]int, len(long.Streams))
	for i := range long.Streams {
		cpus[i] = i % 3
		long.Streams[i] = Stream{D: 250 * (1 + i%2), B: 97 * i % 1000, CPU: cpus[i]}
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Resolve(long); err != nil {
			t.Fatal(err)
		}
	}
	f := eng.Snapshot().Provenance.Families[long.Family()]
	if f.Orbits != 1 || len(f.TopOrbits) != 1 {
		t.Fatalf("family %s: %d orbits, top %+v; want one", long.Family(), f.Orbits, f.TopOrbits)
	}
	if o := f.TopOrbits[0]; o.Hits != 1 || o.Misses != 1 || !reflect.DeepEqual(o.CPUs, cpus) {
		t.Errorf("spilled orbit %+v: want one hit, one miss on CPUs %v", o, cpus)
	}
}

// TestProvenanceRowBytes bounds what the recorder retains per orbit
// row: 1<<16 distinct orbits recorded through the answer route's
// recording point must leave at most rowBytes each on the heap. At this
// count each shard holds 4,096 rows, just past a split of its map's
// tables (at half load), where the pointer-free rows retain about 160 B
// each; rows held as a heap struct, vector and key string behind a
// string-keyed map retained about 213 B.
func TestProvenanceRowBytes(t *testing.T) {
	const rows, rowBytes = 1 << 16, 184
	prov := NewProvenance(0)
	w := &worker{e: NewEngine(Options{Workers: 1, Provenance: prov})}
	cs := w.compile(ConfigSpec{M: 16, NC: 4, Streams: []Stream{{D: 1}, {D: 3, CPU: 1}, {D: 5, CPU: 2}, {D: 7, CPU: 3}}})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		cs.load([]int{i % 16, i / 16 % 16, i / 256 % 16, i / 4096})
		cs.key.setVec(cs.vec)
		w.record(cs, Resolution{Path: PathCache}, 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := prov.rows.Load(); n != rows {
		t.Fatalf("recorded %d rows, want %d", n, rows)
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rows
	t.Logf("%d B per orbit row", per)
	if per > rowBytes {
		t.Errorf("recorder retains %d B per orbit row, want at most %d", per, rowBytes)
	}
	runtime.KeepAlive(prov)
}

// BenchmarkProvenanceAttached quantifies the recording cost against
// the free detached path (BenchmarkProvenanceDetached).
func BenchmarkProvenanceDetached(b *testing.B) {
	eng := NewEngine(Options{Workers: 1})
	w := &worker{e: eng}
	cs := w.compile(PairSpec(13, 4, 1, 6))
	bb := []int{0, 7}
	w.resolve(cs, bb, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.resolve(cs, bb, nil)
	}
}

// BenchmarkProvenanceAttached is the same warm resolver loop with a
// live recorder taking one record per call. Its parallel case runs
// GOMAXPROCS goroutines (two on a 2-vCPU machine), each with its own
// worker, over the 169 cached placements of a triple spec from its own
// starting point: their records spread over the recorder's shards, so
// two goroutines contend only where their orbits share a shard.
func BenchmarkProvenanceAttached(b *testing.B) {
	eng := NewEngine(Options{Workers: 1, Provenance: NewProvenance(0)})
	b.Run("serial", func(b *testing.B) {
		w := &worker{e: eng}
		cs := w.compile(PairSpec(13, 4, 1, 6))
		bb := []int{0, 7}
		w.resolve(cs, bb, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.resolve(cs, bb, nil)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		const m = 13
		spec := TripleCensusSpec(m, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2})
		w := &worker{e: eng}
		cs := w.compile(spec)
		for x := 0; x < m*m; x++ {
			w.resolve(cs, []int{0, x / m, x % m}, nil)
		}
		var goroutines atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := &worker{e: eng}
			cs := w.compile(spec)
			bb := []int{0, 0, 0}
			for x := int(goroutines.Add(1)) * 61; pb.Next(); x = (x + 1) % (m * m) {
				bb[1], bb[2] = x/m, x%m
				w.resolve(cs, bb, nil)
			}
		})
	})
}

// The tally and the provenance view are read while workers record
// (ivmserved scrapes /metrics mid-request): every read must see a
// consistent, non-decreasing count, and the final view must conserve.
func TestTallyReadDuringSweep(t *testing.T) {
	eng := NewEngine(Options{Workers: 4, Provenance: NewProvenance(0)})
	done := make(chan struct{})
	var last int64
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			var n int64
			for _, f := range eng.Snapshot().Provenance.Families {
				n += f.Resolved
			}
			if n < last {
				t.Errorf("resolved count fell from %d to %d", last, n)
			}
			last = n
		}
	}()
	const m = 13
	pairs := eng.Grid(m, 4)
	<-done
	checkConservation(t, eng, map[string]int64{"pair": int64(len(pairs) * m)})
}
