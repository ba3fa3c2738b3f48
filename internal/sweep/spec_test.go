package sweep

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/modmath"
)

func TestSpecFamily(t *testing.T) {
	cases := []struct {
		spec ConfigSpec
		want string
	}{
		{PairSpec(8, 2, 1, 2), "pair"},
		{TripleSpec(8, 2, [3]int{1, 2, 3}), "triple"},
		{TripleCensusSpec(8, 2, [3]int{1, 2, 3}, [3]int{0, 1, 2}), "triple"},
		{SectionPairSpec(12, 3, 3, 1, 2), "section"},
		{NStreamSpec(8, 2, []int{1, 2, 3, 4}), "stream4"},
		// Two sectionless streams on one CPU are not the historical
		// pair shape (two CPUs): they must not share its cache family.
		{ConfigSpec{M: 8, NC: 2, Streams: []Stream{{D: 1}, {D: 2}}}, "stream2"},
		{ConfigSpec{M: 8, S: 2, NC: 2, Streams: []Stream{{D: 1}, {D: 2}, {D: 3}}}, "section3"},
	}
	for _, c := range cases {
		if got := c.spec.Family(); got != c.want {
			t.Errorf("Family(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := PairSpec(8, 2, 1, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []ConfigSpec{
		{M: 0, NC: 1, Streams: []Stream{{D: 1}}},
		{M: 8, NC: 0, Streams: []Stream{{D: 1}}},
		{M: 8, S: 3, NC: 1, Streams: []Stream{{D: 1}}}, // 3 does not divide 8
		{M: 8, NC: 1}, // no streams
		{M: 8, NC: 1, Streams: []Stream{{D: 1, CPU: -1}}},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("invalid spec accepted: %+v", spec)
		}
	}
}

// The capacity-bound fold over a pair spec must report the same
// simulated range as the pair fold — they enumerate the same
// placements of the same streams.
func TestSweepSpecMatchesPairSweep(t *testing.T) {
	pair := coldPair(8, 2, 1, 2)
	spec := SpecGrid([]ConfigSpec{PairSpec(8, 2, 1, 2)})[0]
	if !spec.SimMin.Equal(pair.SimMin) || !spec.SimMax.Equal(pair.SimMax) || spec.Starts != pair.Starts {
		t.Fatalf("generic %+v != pair sweep %+v", spec, pair)
	}
}

// Every sweep entry point on the engine must be indistinguishable from
// its cold oracle — the same rows in the same order — over every fold
// (pair, section, spec) and every spec family the route carries, for
// any worker count and cache configuration. With the default cache, a
// census at translated starts (3,4,5) run after the standard (0,1,2)
// census must be answered entirely from the cache (translation orbits).
func TestEngineSweepSpecMatchesSequential(t *testing.T) {
	census := TripleCensusSpecs(8, 2, [3]int{0, 1, 2})
	shifted := TripleCensusSpecs(8, 2, [3]int{3, 4, 5})
	policy := GridSpecs(12, 3, 3)
	for i := range policy {
		policy[i] = policy[i].WithPolicy(memsys.CyclicPriority, memsys.ConsecutiveSections)
	}
	policy = append(policy, PairSpec(8, 2, 1, 3).WithPolicy(memsys.RoundRobinPerCPU, memsys.CyclicSections))
	mixed := []ConfigSpec{
		PairSpec(8, 2, 2, 6),
		SectionPairSpec(12, 3, 2, 1, 4),
		// A sectioned three-stream shape no legacy family covers.
		{M: 8, S: 2, NC: 2, Streams: []Stream{
			{D: 1, CPU: 0}, {D: 2, CPU: 0, Sweep: true}, {D: 2, CPU: 1, Sweep: true},
		}},
	}
	rows := []struct {
		name    string
		sweep   func(e *Engine) any // nil e selects the cold oracle
		allHits bool                // every placement answered from the triple cache
	}{
		{"pair grid", func(e *Engine) any { return pick(e, Grid, e.Grid)(8, 2) }, false},
		{"section grid", func(e *Engine) any { return pick(e, SectionGrid, e.SectionGrid)(8, 2, 2) }, false},
		{"triple grid", func(e *Engine) any { return pick(e, TripleGrid, e.TripleGrid)(5, 2) }, false},
		{"triple census", func(e *Engine) any { return pick(e, SpecGrid, e.SpecGrid)(census) }, false},
		{"translated census", func(e *Engine) any { return pick(e, SpecGrid, e.SpecGrid)(shifted) }, true},
		{"n-stream grid", func(e *Engine) any { return pick(e, NStreamGrid, e.NStreamGrid)(4, 1, 4) }, false},
		{"policy specs", func(e *Engine) any { return pick(e, SpecGrid, e.SpecGrid)(policy) }, false},
		{"mixed specs", func(e *Engine) any { return pick(e, SpecGrid, e.SpecGrid)(mixed) }, false},
	}
	cold := make([]any, len(rows))
	for i, r := range rows {
		cold[i] = r.sweep(nil)
		if rs, ok := cold[i].([]SpecResult); ok && SummariseSpecGrid(rs).Violations != 0 {
			t.Fatalf("%s: capacity-bound violations", r.name)
		}
	}
	for _, opt := range []Options{
		{Workers: 1, CacheSize: -1},
		{Workers: 4},
		{Workers: 4, CacheSize: 64},
	} {
		eng := NewEngine(opt)
		for i, r := range rows {
			before := eng.Metrics().Family("triple")
			if got := r.sweep(eng); !reflect.DeepEqual(got, cold[i]) {
				t.Fatalf("%s, opts %+v: engine differs from the cold oracle", r.name, opt)
			}
			after := eng.Metrics().Family("triple")
			if r.allHits && opt.CacheSize == 0 && (after.Misses != before.Misses || after.Hits == before.Hits) {
				t.Fatalf("%s, opts %+v: %d misses, %d hits; want every placement from the cache",
					r.name, opt, after.Misses-before.Misses, after.Hits-before.Hits)
			}
		}
	}
}

// pick returns the engine's entry point when e is non-nil, else the
// cold oracle's.
func pick[F any](e *Engine, cold, eng F) F {
	if e == nil {
		return cold
	}
	return eng
}

// The two-stream N-stream grid is the pair grid in generic clothing:
// same distance tuples in the same order, same placements, and —
// because both compile into the "pair" cache family — its placements,
// resolved one by one after the pair grid, must be answered entirely
// from the cache (or the gate).
func TestNStreamGridSharesPairCache(t *testing.T) {
	eng := NewEngine(Options{Workers: 2})
	pairs := eng.Grid(8, 2)
	missesAfterGrid := eng.Metrics().Family("pair").Misses
	sameResolves(t, "N-stream placements", eng, nStreamSpecs(8, 2, 2))
	m := eng.Metrics()
	results := eng.NStreamGrid(8, 2, 2)
	if len(results) != len(pairs) {
		t.Fatalf("N-stream grid has %d tuples, pair grid %d", len(results), len(pairs))
	}
	for i, r := range results {
		p := pairs[i]
		if r.Spec.Streams[0].D != p.D1 || r.Spec.Streams[1].D != p.D2 {
			t.Fatalf("row %d: tuple (%d,%d) != pair (%d,%d)",
				i, r.Spec.Streams[0].D, r.Spec.Streams[1].D, p.D1, p.D2)
		}
		if !r.SimMin.Equal(p.SimMin) || !r.SimMax.Equal(p.SimMax) || r.Starts != p.Starts {
			t.Fatalf("tuple (%d,%d): generic [%s,%s] != pair sweep [%s,%s]",
				p.D1, p.D2, r.SimMin, r.SimMax, p.SimMin, p.SimMax)
		}
	}
	if len(m.Families) != 1 || m.Families["pair"].Hits == 0 {
		t.Fatalf("expected all traffic in the pair family: %+v", m.Families)
	}
	if got := m.Families["pair"].Misses; got != missesAfterGrid {
		t.Fatalf("N-stream pass missed the cache %d times; every placement was already cached",
			got-missesAfterGrid)
	}
}

// The four-stream grid (a p=4 configuration, one stream per CPU) must
// produce a valid sweep: full placement coverage, no capacity-bound
// violations, traffic accounted under the stream4 family, and a
// rendered table.
func TestEngineNStreamGridFourStreams(t *testing.T) {
	eng := NewEngine(Options{Workers: 4})
	results := eng.NStreamGrid(4, 1, 4)
	if len(results) == 0 {
		t.Fatal("empty four-stream grid")
	}
	for _, r := range results {
		if r.Starts != 4*4*4 {
			t.Fatalf("tuple %+v: %d placements, want 64", r.Spec, r.Starts)
		}
		if r.Violations != 0 {
			t.Fatalf("tuple %+v: %d capacity-bound violations", r.Spec, r.Violations)
		}
		if r.SimMin.Cmp(r.SimMax) > 0 || r.SimMax.Cmp(r.BoundMax) > 0 {
			t.Fatalf("tuple %+v: inconsistent range sim [%s,%s] bound [%s,%s]",
				r.Spec, r.SimMin, r.SimMax, r.BoundMin, r.BoundMax)
		}
	}
	m := eng.Metrics()
	if len(m.Families) != 1 || m.Families["stream4"].Hits == 0 {
		t.Fatalf("expected cached traffic in the stream4 family: %+v", m.Families)
	}
	out := SpecTable(results)
	for _, col := range []string{"d1", "d4", "bound", "sim min", "tight"} {
		if !strings.Contains(out, col) {
			t.Fatalf("table missing %q:\n%s", col, out)
		}
	}
	if s := SummariseSpecGrid(results); s.Violations != 0 || s.Starts == 0 {
		t.Fatalf("summary %+v", s)
	}
}

// A census at translated starts (t, 1+t, 2+t) is the standard census
// seen through the translation isomorphism: the engine must answer it
// entirely from the standard census's cache entries, and the values
// must match a cold simulation of the translated placements.
func TestTriplesAtTranslationReuse(t *testing.T) {
	eng := NewEngine(Options{Workers: 2})
	base := eng.SpecGrid(TripleCensusSpecs(6, 2, [3]int{0, 1, 2}))
	m0 := eng.Metrics().Family("triple")
	shiftedSpecs := TripleCensusSpecs(6, 2, [3]int{3, 4, 5})
	shifted := eng.SpecGrid(shiftedSpecs)
	m1 := eng.Metrics().Family("triple")
	if m1.Misses != m0.Misses {
		t.Fatalf("translated census missed the cache %d times; translation orbits should collapse it",
			m1.Misses-m0.Misses)
	}
	if m1.Hits <= m0.Hits {
		t.Fatal("translated census produced no cache hits")
	}
	sameRows(t, "translated census", SpecGrid(shiftedSpecs), shifted)
	for i := range base {
		if !base[i].SimMin.Equal(shifted[i].SimMin) {
			t.Fatalf("triple %v: bandwidth %s at (0,1,2) but %s at (3,4,5)",
				base[i].Spec.Streams, base[i].SimMin, shifted[i].SimMin)
		}
	}
}

// Metrics JSON is the plain struct encoding: per-family counters nest
// under "families" keyed by family name (the pre-spec flat
// pair_cache_hits / triple_cache_misses fields are gone), and the
// encoding round-trips exactly.
func TestMetricsJSONGenericFamilies(t *testing.T) {
	m := Metrics{
		CacheHits: 12, CacheMisses: 5, AnalyticHits: 7,
		Families: map[string]FamilyMetrics{
			"pair":    {Hits: 10, Misses: 3, Analytic: 7},
			"stream4": {Hits: 2, Misses: 2},
		},
		CacheEntries: 4, CyclesFound: 5, StepsSimulated: 100, PairsSwept: 3,
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"cache_hits":12`, `"analytic_hits":7`,
		`"pair":{"cache_hits":10,"cache_misses":3,"analytic_hits":7}`,
		`"stream4":{"cache_hits":2,"cache_misses":2,"analytic_hits":0}`,
		`"cycles_found":5`, `"pairs_swept":3`,
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("marshal missing %s: %s", want, data)
		}
	}
	if strings.Contains(string(data), "pair_cache_hits") || strings.Contains(string(data), "triple") {
		t.Fatalf("marshal carries legacy flat family fields: %s", data)
	}
	if strings.Contains(string(data), "packed_fallbacks") {
		t.Fatalf("marshal carries the removed packed_fallbacks field: %s", data)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip %+v != %+v", back, m)
	}
	// A live engine's counters round-trip the same way.
	eng := NewEngine(Options{Workers: 1})
	eng.Grid(8, 2)
	live := eng.Metrics()
	if data, err = json.Marshal(live); err != nil {
		t.Fatal(err)
	}
	back = Metrics{}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, back) {
		t.Fatalf("live round trip %+v != %+v", back, live)
	}
}

// randSpec draws a random multi-stream spec for the canonicalisation
// fuzz/property tests: 2..4 streams, random section count dividing m,
// random CPU layout.
func randSpec(rng *rand.Rand) ConfigSpec {
	m := 2 + rng.Intn(15)
	divs := divisors(m)
	s := 0
	if rng.Intn(2) == 0 {
		s = divs[rng.Intn(len(divs))]
	}
	n := 2 + rng.Intn(3)
	streams := make([]Stream, n)
	for i := range streams {
		streams[i] = Stream{D: rng.Intn(m), B: rng.Intn(m), CPU: rng.Intn(n)}
	}
	return ConfigSpec{M: m, S: s, NC: 1 + rng.Intn(4), Streams: streams}
}

// specKeyTransformInvariant asserts the compiled key of spec at its own
// starts equals the key of the affinely transformed configuration
// (distances and starts scaled by u, starts shifted by t).
func specKeyTransformInvariant(t *testing.T, w *worker, spec ConfigSpec, u, shift int) {
	t.Helper()
	cs := w.compile(spec)
	b := make([]int, len(spec.Streams))
	for i, st := range spec.Streams {
		b[i] = st.B
	}
	want := keyAt(cs, b)

	moved := spec
	moved.Streams = append([]Stream(nil), spec.Streams...)
	bm := make([]int, len(b))
	for i := range moved.Streams {
		moved.Streams[i].D = modmath.Mod(u*moved.Streams[i].D, spec.M)
		bm[i] = modmath.Mod(u*b[i]+shift, spec.M)
		moved.Streams[i].B = bm[i]
	}
	csm := w.compile(moved)
	if got := keyAt(csm, bm); got != want {
		t.Fatalf("spec %+v under u=%d t=%d: key %+v != %+v", spec, u, shift, got, want)
	}
	// Idempotence: canonicalising the canonical vector is a fixed point.
	vec := append([]int(nil), cs.vec...)
	cs.canon.Canonicalize(vec, len(spec.Streams))
	if !reflect.DeepEqual(vec, cs.vec) {
		t.Fatalf("spec %+v: canonical vector %v not a fixed point (-> %v)", spec, cs.vec, vec)
	}
}

// allowedTransforms draws a unit and a translation legal for the
// spec's section structure.
func allowedTransforms(rng *rand.Rand, spec ConfigSpec) (u, shift int) {
	step := 1
	if spec.S > 1 {
		step = spec.S
	}
	units := modmath.Units(spec.M)
	return units[rng.Intn(len(units))], step * rng.Intn(spec.M/step)
}

// The compiled cache key is constant on affine orbits for every spec
// shape, not just the legacy families — seeded property test.
func TestSpecKeyOrbitInvariantRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19850805))
	w := &worker{e: NewEngine(Options{})}
	for trial := 0; trial < 300; trial++ {
		spec := randSpec(rng)
		u, shift := allowedTransforms(rng, spec)
		specKeyTransformInvariant(t, w, spec, u, shift)
	}
}

// FuzzSpecCanonical drives the same property from fuzz inputs: the
// canonical key is orbit-invariant and canonicalisation idempotent for
// arbitrary spec shapes, and a worker that canonicalised one spec
// keys the next as a fresh worker would.
func FuzzSpecCanonical(f *testing.F) {
	f.Add(uint8(11), uint8(1), uint8(2), uint8(3), uint8(7), uint8(2))
	f.Add(uint8(15), uint8(4), uint8(3), uint8(1), uint8(3), uint8(9))
	f.Add(uint8(5), uint8(0), uint8(1), uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, mRaw, sRaw, nRaw, seedRaw, uRaw, shiftRaw uint8) {
		m := 2 + int(mRaw)%15
		divs := divisors(m)
		s := 0
		if sRaw%2 == 0 {
			s = divs[int(sRaw/2)%len(divs)]
		}
		n := 2 + int(nRaw)%3
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		streams := make([]Stream, n)
		for i := range streams {
			streams[i] = Stream{D: rng.Intn(m), B: rng.Intn(m), CPU: rng.Intn(n)}
		}
		spec := ConfigSpec{M: m, S: s, NC: 1 + int(seedRaw)%4, Streams: streams}

		step := 1
		if s > 1 {
			step = s
		}
		units := modmath.Units(m)
		u := units[int(uRaw)%len(units)]
		shift := step * (int(shiftRaw) % (m / step))
		w := &worker{e: NewEngine(Options{})}
		specKeyTransformInvariant(t, w, spec, u, shift)

		// A second spec of the same (m, s) with other distances, then
		// the first again, on the same worker: each key must be the one
		// a fresh worker gives, so a canonicaliser that kept what it
		// worked out for the previous distances shows as a mismatch.
		other := spec
		other.Streams = append([]Stream(nil), spec.Streams...)
		other.Streams[0].D = (spec.Streams[0].D + 1 + rng.Intn(m-1)) % m
		for i := 1; i < n; i++ {
			other.Streams[i].D = rng.Intn(m)
		}
		for _, sp := range []ConfigSpec{other, spec} {
			b := make([]int, n)
			for i, st := range sp.Streams {
				b[i] = st.B
			}
			fresh := &worker{e: NewEngine(Options{})}
			if got, want := keyAt(w.compile(sp), b), keyAt(fresh.compile(sp), b); got != want {
				t.Fatalf("spec %+v after another spec on the worker: key %+v, fresh worker %+v", sp, got, want)
			}
		}
	})
}

// The capacity bound runs once per placement of every specFold sweep;
// on an m <= 256 memory its per-placement half allocates nothing, the
// touched-bank bitset on the stack.
func TestSpecBoundAllocs(t *testing.T) {
	specs := []ConfigSpec{
		TripleSpec(13, 4, [3]int{1, 2, 6}),
		NStreamSpec(8, 2, []int{1, 3, 5, 7}),
		SectionPairSpec(16, 4, 4, 1, 3),
		{M: 256, S: 8, NC: 4, Streams: []Stream{{D: 1}, {D: 64, CPU: 1}, {D: 3, CPU: 1}}},
	}
	for _, spec := range specs {
		capacity := specCapacity(spec)
		b := make([]int, len(spec.Streams))
		for i := range b {
			b[i] = i + 1
		}
		if n := testing.AllocsPerRun(100, func() { capacity.At(b) }); n != 0 {
			t.Errorf("capacity.At(%s, m=%d) allocates %v per op, want 0", spec.Family(), spec.M, n)
		}
	}
}
