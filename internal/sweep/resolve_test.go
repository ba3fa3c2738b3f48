package sweep

import (
	"math/rand"
	"slices"
	"testing"

	"ivm/internal/rat"
)

// TestResolvePaths pins the three answer routes and their attribution:
// an analytically provable pair resolves as PathAnalytic with its
// theorem identifier, a census placement simulates first (PathSimPacked
// under the default kernel) and then hits the cache, and every route
// returns the value the cold sequential path computes.
func TestResolvePaths(t *testing.T) {
	eng := NewEngine(Options{Workers: 1})

	// m=16 nc=4 d1=1 d2=2 is a unique-barrier pair: the gate answers
	// every placement under eq-29.
	pair := PairSpec(16, 4, 1, 2)
	pair.Streams[1].Sweep = false
	pair.Streams[1].B = 5
	res, err := eng.Resolve(pair)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathAnalytic || res.Theorem != "eq-29" {
		t.Fatalf("gated pair: path %v theorem %q, want analytic under eq-29", res.Path, res.Theorem)
	}
	if res.Family != "pair" {
		t.Fatalf("gated pair family %q", res.Family)
	}
	want := rat.New(3, 2)
	if !res.BW.Equal(want) {
		t.Fatalf("gated pair b_eff %s, want %s", res.BW, want)
	}

	// A triple census placement has no gate: first resolution
	// simulates, the second hits the cache, both byte-identical to the
	// cold path.
	spec := TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2})
	cold := simulateSpecVec(spec, []int{1, 2, 6, 0, 1, 2})
	first, err := eng.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Path != PathSimPacked {
		t.Fatalf("first census resolve path %v, want sim-packed", first.Path)
	}
	if first.CycleLength <= 0 || first.Clocks < first.CycleLength {
		t.Fatalf("simulated resolve cost cycle=%d clocks=%d", first.CycleLength, first.Clocks)
	}
	if len(first.Canonical) != 6 {
		t.Fatalf("simulated resolve canonical %v", first.Canonical)
	}
	if !first.BW.Equal(cold) {
		t.Fatalf("simulated resolve b_eff %s, cold path %s", first.BW, cold)
	}
	second, err := eng.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Path != PathCache {
		t.Fatalf("second census resolve path %v, want cache", second.Path)
	}
	if !second.BW.Equal(cold) {
		t.Fatalf("cached resolve b_eff %s, cold path %s", second.BW, cold)
	}
	// The cache hit returns the same orbit representative.
	if len(second.Canonical) != len(first.Canonical) {
		t.Fatalf("canonical changed across hit: %v vs %v", first.Canonical, second.Canonical)
	}
	for i := range first.Canonical {
		if first.Canonical[i] != second.Canonical[i] {
			t.Fatalf("canonical changed across hit: %v vs %v", first.Canonical, second.Canonical)
		}
	}

	// A translate of the placement canonicalises onto the same orbit
	// and hits too, with the same value.
	translated := TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{5, 6, 7})
	tr, err := eng.Resolve(translated)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Path != PathCache || !tr.BW.Equal(cold) {
		t.Fatalf("translated resolve path %v b_eff %s, want cache %s", tr.Path, tr.BW, cold)
	}
}

// TestResolveBatchOrderAndSplit pins batch semantics: results come
// back in input order and match per-spec Resolve answers.
func TestResolveBatchOrderAndSplit(t *testing.T) {
	specs := []ConfigSpec{
		TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2}),
		TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{1, 2, 3}), // translate of the first
		TripleCensusSpec(13, 4, [3]int{1, 3, 5}, [3]int{0, 1, 2}),
	}
	eng := NewEngine(Options{Workers: 2})
	got, err := eng.ResolveBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("batch returned %d results for %d specs", len(got), len(specs))
	}
	for i, cold := range SpecGrid(specs) {
		if !got[i].BW.Equal(cold.SimMin) || !cold.SimMin.Equal(cold.SimMax) {
			t.Fatalf("batch item %d: b_eff %s, cold %s..%s", i, got[i].BW, cold.SimMin, cold.SimMax)
		}
	}
}

// The detached answer route — no Timeline, Provenance, sinks or span
// sink, as in a sweep — allocates nothing on an analytic answer nor on
// a cache hit: the probe looks the packed vector up in place. A miss's
// put of a census-sized key allocates nothing either: the key is held
// inline, so only the shard maps' growth allocates, amortised over
// many puts to well below one allocation each. A class lead, which
// resolves without the cache, simulates every placement and allocates
// nothing per placement once warm: the worker's simulator re-arms its
// ports and the search refills the worker's Cycle, and a worker keeps
// a simulator per configuration, so alternating between two does not
// rebuild either.
func TestDetachedResolveAllocs(t *testing.T) {
	w := &worker{e: NewEngine(Options{Workers: 1})}
	gated := w.compile(PairSpec(16, 4, 1, 2)) // eq-29 answers every placement
	b := []int{0, 5}
	if r := w.resolve(gated, b, nil); r.Path != PathAnalytic {
		t.Fatalf("gated pair resolved on %v", r.Path)
	}
	if n := testing.AllocsPerRun(100, func() { w.resolve(gated, b, nil) }); n != 0 {
		t.Errorf("detached analytic answer allocates %v per op, want 0", n)
	}
	census := w.compile(TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2}))
	w.resolve(census, census.b, nil) // simulate once; every later call hits
	if r := w.resolve(census, census.b, nil); r.Path != PathCache {
		t.Fatalf("repeated census placement resolved on %v", r.Path)
	}
	if n := testing.AllocsPerRun(100, func() { w.resolve(census, census.b, nil) }); n != 0 {
		t.Errorf("detached cache hit allocates %v per op, want 0", n)
	}

	for _, spec := range []ConfigSpec{
		NStreamSpec(8, 2, []int{1, 3, 5, 7}),
		TripleSpec(13, 4, [3]int{1, 2, 6}),
	} {
		lead := w.compile(spec)
		lead.cache = nil
		var places [][]int
		eachPlacement(spec, func(b []int) { places = append(places, slices.Clone(b)) })
		for _, b := range places {
			if r := w.resolve(lead, b, nil); r.Path != PathSimPacked {
				t.Fatalf("%s class lead resolved %v on %v, want a packed simulation", lead.family, b, r.Path)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(len(places), func() {
			w.resolve(lead, places[i%len(places)], nil)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s class lead: a simulated placement allocates %v, want 0", lead.family, allocs)
		}
	}

	// One worker alternating between two class leads on batch-cold's
	// two memory configurations (every stream on CPU 0 needs one CPU,
	// {0, 1, 0, 1} two) keeps a simulator for each: past each layout's
	// first placement, a switch rebuilds nothing.
	alt := &worker{e: NewEngine(Options{Workers: 1})}
	var leads []*compiledSpec
	for _, cpus := range [][]int{{0, 0, 0, 0}, {0, 1, 0, 1}} {
		spec := ConfigSpec{M: 16, NC: 4}
		for j, cpu := range cpus {
			spec.Streams = append(spec.Streams, Stream{D: 2*j + 1, B: 3 * j, CPU: cpu})
		}
		lead := alt.compile(spec)
		lead.cache = nil
		alt.resolve(lead, lead.b, nil)
		leads = append(leads, lead)
	}
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		lead := leads[k%2]
		if r := alt.resolve(lead, lead.b, nil); r.Path != PathSimPacked {
			t.Fatalf("alternated class lead resolved on %v, want a packed simulation", r.Path)
		}
		k++
	})
	if allocs != 0 {
		t.Errorf("class leads alternating between two configurations: a simulated placement allocates %v, want 0", allocs)
	}

	stream4 := w.compile(NStreamSpec(8, 2, []int{1, 3, 5, 7}))
	for _, cs := range []*compiledSpec{census, stream4} {
		c := newBWCache(DefaultCacheSize)
		n := len(cs.vec)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			i++
			for j := range cs.vec { // a fresh key every put
				cs.vec[j] = i >> (2 * j) & 3
			}
			cs.key.setVec(cs.vec)
			c.put(&cs.key, rat.One())
		})
		if allocs != 0 || c.Len() != 1001 {
			t.Errorf("%s: %d puts of %d-coordinate keys allocate %v per put, want 0", cs.family, c.Len(), n, allocs)
		}
	}
}

// TestResolveRejectsBadSpecs pins the validation surface: resolution
// returns errors (never panics) on swept streams, out-of-range
// coordinates and invalid shapes.
func TestResolveRejectsBadSpecs(t *testing.T) {
	eng := NewEngine(Options{Workers: 1})
	bad := []ConfigSpec{
		PairSpec(16, 4, 1, 2), // stream 2 swept
		{M: 16, NC: 4, Streams: []Stream{{D: 1}, {D: 17, CPU: 1}}},       // d out of range
		{M: 16, NC: 4, Streams: []Stream{{D: 1}, {D: 2, B: 16, CPU: 1}}}, // b out of range
		{M: 16, NC: 4, Streams: []Stream{{D: -1}, {D: 2, CPU: 1}}},       // negative d
		{M: 0, NC: 4, Streams: []Stream{{D: 1}}},                         // no banks
		{M: 12, S: 3, NC: 4},                                             // no streams
	}
	for i, spec := range bad {
		if _, err := eng.Resolve(spec); err == nil {
			t.Errorf("bad spec %d resolved without error", i)
		}
	}
	// A batch with one bad spec resolves nothing.
	batch := []ConfigSpec{
		TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2}),
		PairSpec(16, 4, 1, 2),
	}
	if _, err := eng.ResolveBatch(batch); err == nil {
		t.Error("batch with a swept stream resolved without error")
	}
	if n := eng.Metrics().PairsSwept; n != 0 {
		t.Errorf("failed batch still resolved %d units", n)
	}
}

// BenchmarkResolveBatchMixedConfigs resolves one 512-spec batch shaped
// like ivmbench's batch-cold batches (4 streams on an m = 16, n_c = 4
// memory, each stream on CPU 0 or 1, so the batch mixes a one-CPU and
// a two-CPU configuration) on a fresh one-worker engine per iteration.
// Almost every spec is a new orbit, so its allocations are those of
// simulator setup, the search and the cache; one worker keeps the
// counts exact.
func BenchmarkResolveBatchMixedConfigs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := make([]ConfigSpec, 512)
	for i := range batch {
		spec := ConfigSpec{M: 16, NC: 4}
		for j := 0; j < 4; j++ {
			spec.Streams = append(spec.Streams, Stream{D: 1 + rng.Intn(15), B: rng.Intn(16), CPU: rng.Intn(2)})
		}
		batch[i] = spec
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(Options{Workers: 1}).ResolveBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
