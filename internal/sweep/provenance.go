package sweep

// Result provenance: the engine's answer tally (Engine.Tally) counts
// WHICH of its three answer routes resolved every placement — the
// theorem-driven analytic gate (per theorem/equation identifier), the
// canonical-key cache, or a (scalar or bit-packed) simulation (with
// the clocks it stepped). When Options.Provenance is set, the recorder
// adds the per-orbit evidence behind cache traffic and simulations:
// the canonical key, its observed population, and the cycle length
// plus clocks of its simulations. The recorder is nil-safe like
// Timeline: a detached (nil) recorder costs the hot path nothing and
// allocates nothing. Engine.Snapshot joins the tally and the orbit
// rows into the aggregated view (ProvenanceSnapshot), which is what
// makes large censuses explainable — it names the per-family path
// split, the theorems doing the analytic work, the orbit-size
// distribution behind each cache hit rate, and the top unexplained
// orbits whose simulations were never reused (the diagnosis of the
// stream4 family's low hit rate; see docs/OBSERVABILITY.md).

import (
	"cmp"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"ivm/internal/textplot"
)

// Path identifies the engine route that resolved one placement.
type Path int

// The provenance paths. Every placement an engine resolves takes
// exactly one of them, which is the conservation invariant the
// attribution tests pin: analytic + cache + sim-scalar + sim-packed
// equals the placements resolved, per configuration family.
const (
	// PathAnalytic: the theorem-driven classifier gate answered without
	// simulating or touching the cache.
	PathAnalytic Path = iota
	// PathCache: the canonical-key cache held the orbit's value.
	PathCache
	// PathSimScalar: simulated on the scalar reference kernel.
	PathSimScalar
	// PathSimPacked: simulated on the bit-packed bank-busy kernel.
	PathSimPacked
	numPaths
)

var pathNames = [...]string{
	PathAnalytic:  "analytic",
	PathCache:     "cache",
	PathSimScalar: "sim-scalar",
	PathSimPacked: "sim-packed",
}

// String names the path ("analytic", "cache", "sim-scalar",
// "sim-packed").
func (p Path) String() string {
	if p < 0 || int(p) >= len(pathNames) {
		return fmt.Sprintf("path(%d)", int(p))
	}
	return pathNames[p]
}

// DefaultProvenanceOrbits bounds the per-orbit attribution table of a
// recorder built by NewProvenance(0). Path and theorem counts are the
// engine's tally and stay exact past the bound; only new per-orbit rows
// are dropped (and counted in ProvenanceSnapshot.DroppedOrbits).
const DefaultProvenanceOrbits = 1 << 18

// Provenance is a bounded recorder of per-orbit result provenance,
// attached to one engine through Options.Provenance. It is safe for
// concurrent use and a no-op on a nil receiver, which is how the engine
// runs unrecorded — the detached path adds no allocations (the overhead
// tests pin that).
//
// A row is keyed by its orbit's cache key — policy, (m, s, n_c), CPU
// layout and canonical configuration vector (d_1..d_N, b_1..b_N) — the
// key the cache probe has just packed (worker.record packs it for a
// placement simulated without a probe), so two specs with equal vectors
// on different CPU layouts are two orbits, as they are two cache
// entries. The rows are sharded like the cache, by the same key hash,
// each shard under its own lock, and a row holds only its counts: a
// shard's map of inline keys holds no pointer, so the collector never
// scans it, and a known row is updated without allocating.
type Provenance struct {
	maxOrbits int64
	rows      atomic.Int64 // orbit rows held across all shards
	dropped   atomic.Int64
	shards    [cacheShardCount]provShard
}

// provShard holds the rows of inline keys in m and of spilled keys in
// spill, as bwShard does; a spilled row sits behind a pointer so that
// updating it builds no key string.
type provShard struct {
	mu    sync.Mutex
	m     map[cacheKey]orbitRow
	spill map[string]*orbitRow
}

// orbitRow is the observed population of one canonical orbit.
type orbitRow struct {
	hits, misses int64
	cycleLen     int64 // steady-state period of the last simulation
	clocks       int64 // lead + cycle clocks across re-simulations
}

// add counts one placement answered on r's path.
func (o *orbitRow) add(r Resolution) {
	if r.Path == PathCache {
		o.hits++
		return
	}
	o.misses++
	o.cycleLen = r.CycleLength
	o.clocks += r.Clocks
}

// NewProvenance builds a recorder tracking at most maxOrbits distinct
// canonical orbits (0 selects DefaultProvenanceOrbits); past the
// bound, further new orbits are only counted as dropped.
func NewProvenance(maxOrbits int) *Provenance {
	if maxOrbits <= 0 {
		maxOrbits = DefaultProvenanceOrbits
	}
	return &Provenance{maxOrbits: int64(maxOrbits)}
}

// observe adds one placement of cs to its orbit's row: a cache hit, or
// a simulation with its steady state (cycle length and lead+cycle
// clocks). cs.key holds the placement's orbit key, packed by the cache
// probe or, for a placement simulated without one, by worker.record.
// Only a new row allocates, and only by map growth.
func (p *Provenance) observe(cs *compiledSpec, r Resolution) {
	if p == nil {
		return
	}
	k := &cs.key
	s := &p.shards[k.shard()]
	s.mu.Lock()
	if ik, in := inlineKey(k.buf); in {
		if o, ok := s.m[ik]; ok || p.admit() {
			o.add(r)
			if s.m == nil {
				s.m = make(map[cacheKey]orbitRow)
			}
			s.m[ik] = o
		}
	} else if o := s.spill[string(k.buf)]; o != nil {
		o.add(r)
	} else if p.admit() {
		o = new(orbitRow)
		o.add(r)
		if s.spill == nil {
			s.spill = make(map[string]*orbitRow)
		}
		s.spill[string(k.buf)] = o
	}
	s.mu.Unlock()
}

// observeCopy adds every placement of spec, a class copy whose result
// specGrid took from its lead, to its orbit's row as a cache hit. The
// copy's placements are canonicalised but never probe the cache: a unit
// maps them onto the lead's placements with the same keys
// (docs/CACHING.md §8), so these are the rows the lead's simulations
// opened, and the hits are the ones the tally counts for the copy.
func (p *Provenance) observeCopy(w *worker, spec ConfigSpec) {
	if p == nil {
		return
	}
	cs := w.compile(spec)
	eachPlacement(spec, func(b []int) {
		cs.pack(b)
		p.observe(cs, Resolution{Path: PathCache})
	})
}

// admit reserves a row for a new orbit under the bound; past it, it
// counts the orbit as dropped and reports false.
func (p *Provenance) admit() bool {
	if p.rows.Add(1) <= p.maxOrbits {
		return true
	}
	p.rows.Add(-1)
	p.dropped.Add(1)
	return false
}

// --- Aggregated snapshot ------------------------------------------------

// OrbitInfo is the observed population of one canonical orbit in a
// provenance snapshot: how many placements canonicalised onto its key,
// split into cache hits (reused simulations) and misses (simulations
// run), with the simulation cost attached.
type OrbitInfo struct {
	// M, S, NC, CPUs and Vec pin the orbit's canonical representative:
	// the memory shape, the CPU of each stream and the configuration
	// vector (d_1..d_N, b_1..b_N).
	M    int   `json:"m"`
	S    int   `json:"s,omitempty"`
	NC   int   `json:"nc"`
	CPUs []int `json:"cpus,omitempty"`
	Vec  []int `json:"vec"`
	// Hits and Misses are the orbit's observed cache traffic; Size is
	// their sum — the placements this orbit explains.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Size   int64 `json:"size"`
	// CycleLength is the steady-state period of the orbit's last
	// simulation; Clocks the lead+cycle clocks stepped across all its
	// (re-)simulations. Both zero for orbits only ever hit.
	CycleLength int64 `json:"cycle_length,omitempty"`
	Clocks      int64 `json:"clocks,omitempty"`
}

// Label renders the orbit's canonical representative compactly, e.g.
// "m=13 nc=4 d=[1 6] b=[0 7]". It leaves out the CPU layout, which
// each family the CLIs sweep fixes.
func (o OrbitInfo) Label() string {
	n := len(o.Vec) / 2
	s := fmt.Sprintf("m=%d", o.M)
	if o.S > 0 {
		s += fmt.Sprintf(" s=%d", o.S)
	}
	return fmt.Sprintf("%s nc=%d d=%v b=%v", s, o.NC, o.Vec[:n], o.Vec[n:])
}

// OrbitSizeBucket is one bar of the orbit-size histogram: how many
// orbits were observed with a population in [Lo, Hi], and how many
// placements those orbits explain together.
type OrbitSizeBucket struct {
	Lo         int64 `json:"lo"`
	Hi         int64 `json:"hi"`
	Orbits     int64 `json:"orbits"`
	Placements int64 `json:"placements"`
}

// FamilyProvenance is the aggregated provenance of one configuration
// family. Resolved = Analytic + CacheHits + SimScalar + SimPacked is
// the conservation invariant: every placement the engine resolved for
// this family took exactly one path.
type FamilyProvenance struct {
	Analytic  int64 `json:"analytic"`
	CacheHits int64 `json:"cache_hits"`
	SimScalar int64 `json:"sim_scalar"`
	SimPacked int64 `json:"sim_packed"`
	Resolved  int64 `json:"resolved"`
	// SimClocks is the total lead+cycle clocks this family's
	// simulations stepped.
	SimClocks int64 `json:"sim_clocks,omitempty"`
	// Theorems counts analytic answers by theorem/equation identifier
	// ("theorem-2", "theorem-3", "eq-29").
	Theorems map[string]int64 `json:"theorems,omitempty"`
	// Orbits counts the distinct canonical orbits observed;
	// SingletonOrbits the ones observed exactly once — simulated but
	// never reused, the population behind a low hit rate.
	Orbits          int64 `json:"orbits"`
	SingletonOrbits int64 `json:"singleton_orbits"`
	// MeanOrbitSize is placements-with-orbit-rows over Orbits.
	MeanOrbitSize float64 `json:"mean_orbit_size,omitempty"`
	// OrbitSizes is the orbit-size histogram in power-of-two buckets.
	OrbitSizes []OrbitSizeBucket `json:"orbit_size_histogram,omitempty"`
	// TopOrbits are the largest orbits by explained placements;
	// UnexplainedOrbits the most re-simulated (then most expensive)
	// orbits — the miss-attribution view. Both capped at TopOrbitK.
	TopOrbits         []OrbitInfo `json:"top_orbits,omitempty"`
	UnexplainedOrbits []OrbitInfo `json:"unexplained_orbits,omitempty"`
}

// Count returns the placements of the family that path p answered.
func (f FamilyProvenance) Count(p Path) int64 {
	switch p {
	case PathAnalytic:
		return f.Analytic
	case PathCache:
		return f.CacheHits
	case PathSimScalar:
		return f.SimScalar
	case PathSimPacked:
		return f.SimPacked
	}
	return 0
}

// TopOrbitK caps the per-family top-orbit and unexplained-orbit lists
// of a provenance snapshot.
const TopOrbitK = 8

// ProvenanceSnapshot is the aggregated attribution view of one engine
// (Snapshot.Provenance), JSON-serialisable into metrics snapshots.
type ProvenanceSnapshot struct {
	// Families maps ConfigSpec.Family to its aggregation.
	Families map[string]FamilyProvenance `json:"families"`
	// DroppedOrbits counts canonical orbits past the recorder's
	// capacity bound whose per-orbit rows were not tracked (the path
	// counts above are the engine's tally and stay exact regardless).
	DroppedOrbits int64 `json:"dropped_orbits,omitempty"`
}

// view joins the engine's answer tally with the recorder's orbit rows
// into the attribution view (Engine.Snapshot is its one caller). Safe
// to call concurrently with recording: it walks the shards once, each
// under its own lock, copying each key into one scratch buffer, so its
// allocations do not grow with the rows. The counts and the size
// histogram read only the row values; only the rows the two lists
// report have their keys decoded.
func (p *Provenance) view(tally map[string]FamilyProvenance) ProvenanceSnapshot {
	aggs := make(map[string]*orbitAgg, len(tally))
	for name := range tally {
		aggs[name] = newOrbitAgg()
	}
	var key, fam []byte // scratch: a row's key and its family's name
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for k, o := range s.m {
			key = append(key[:0], k.b[:k.n]...)
			fam = addRow(aggs, fam, key, o)
		}
		for k, o := range s.spill {
			key = append(key[:0], k...)
			fam = addRow(aggs, fam, key, *o)
		}
		s.mu.Unlock()
	}
	s := ProvenanceSnapshot{DroppedOrbits: p.dropped.Load()}
	for name, fp := range tally {
		aggs[name].fill(&fp)
		if s.Families == nil {
			s.Families = make(map[string]FamilyProvenance)
		}
		s.Families[name] = fp
	}
	return s
}

// addRow adds the row of key to its family's aggregate, if the tally
// has that family. It derives the family's name into fam, scratch it
// returns for the next row, so a row costs no allocation.
func addRow(aggs map[string]*orbitAgg, fam, key []byte, o orbitRow) []byte {
	fam = parseKey(key).appendFamily(fam[:0])
	a := aggs[string(fam)]
	if a == nil {
		return fam
	}
	size := o.hits + o.misses
	a.orbits++
	a.placements += size
	if size == 1 {
		a.singletons++
	}
	b := &a.sizes[bits.Len64(uint64(size-1))]
	b.orbits++
	b.placements += size
	a.top.offer(key, o)
	if o.misses > 0 {
		a.unexplained.offer(key, o)
	}
	return fam
}

// orbitAgg aggregates one family's rows: counts, the orbit-size
// histogram in power-of-two buckets (bucket i holds sizes
// (2^(i-1), 2^i], bucket 0 size 1), and the rows of its two lists.
type orbitAgg struct {
	orbits, singletons, placements int64
	sizes                          [64]struct{ orbits, placements int64 }
	top, unexplained               topOrbits
}

func newOrbitAgg() *orbitAgg {
	return &orbitAgg{
		// The largest orbits by explained placements.
		top: topOrbits{less: func(a, b orbitRef) bool {
			if sa, sb := a.row.hits+a.row.misses, b.row.hits+b.row.misses; sa != sb {
				return sa > sb
			}
			return orbitLess(a.key, b.key)
		}},
		// The most re-simulated, then most expensive, orbits.
		unexplained: topOrbits{less: func(a, b orbitRef) bool {
			if a.row.misses != b.row.misses {
				return a.row.misses > b.row.misses
			}
			if a.row.clocks != b.row.clocks {
				return a.row.clocks > b.row.clocks
			}
			return orbitLess(a.key, b.key)
		}},
	}
}

// fill sets fp's orbit fields from the aggregate.
func (a *orbitAgg) fill(fp *FamilyProvenance) {
	fp.Orbits, fp.SingletonOrbits = a.orbits, a.singletons
	if a.orbits > 0 {
		fp.MeanOrbitSize = float64(a.placements) / float64(a.orbits)
	}
	for i, b := range a.sizes {
		if b.orbits > 0 {
			fp.OrbitSizes = append(fp.OrbitSizes, OrbitSizeBucket{
				Lo: int64(1)<<i/2 + 1, Hi: int64(1) << i, Orbits: b.orbits, Placements: b.placements,
			})
		}
	}
	fp.TopOrbits = a.top.infos()
	fp.UnexplainedOrbits = a.unexplained.infos()
}

// orbitRef is a row held by a list: its key, copied out of the shard,
// and its counts.
type orbitRef struct {
	key []byte
	row orbitRow
}

// topOrbits keeps the TopOrbitK rows first under less, in that order.
// less takes its refs by value, so offering a row builds none on the
// heap.
type topOrbits struct {
	less func(a, b orbitRef) bool
	refs []orbitRef
}

// offer adds the row of key when it ranks among the first TopOrbitK,
// evicting the last.
func (t *topOrbits) offer(key []byte, o orbitRow) {
	n := len(t.refs)
	if n == TopOrbitK {
		if !t.less(orbitRef{key: key, row: o}, t.refs[n-1]) {
			return
		}
		n--
		t.refs[n].key = append(t.refs[n].key[:0], key...)
		t.refs[n].row = o
	} else {
		t.refs = append(t.refs, orbitRef{key: append([]byte(nil), key...), row: o})
	}
	for ; n > 0 && t.less(t.refs[n], t.refs[n-1]); n-- {
		t.refs[n], t.refs[n-1] = t.refs[n-1], t.refs[n]
	}
}

// infos decodes the kept rows into OrbitInfos (nil when none).
func (t *topOrbits) infos() []OrbitInfo {
	if len(t.refs) == 0 {
		return nil
	}
	out := make([]OrbitInfo, len(t.refs))
	for i, r := range t.refs {
		kp := parseKey(r.key)
		out[i] = OrbitInfo{
			M: kp.m, S: kp.s, NC: kp.nc, CPUs: unpackInts(kp.cpus), Vec: unpackInts(kp.vec),
			Hits: r.row.hits, Misses: r.row.misses, Size: r.row.hits + r.row.misses,
			CycleLength: r.row.cycleLen, Clocks: r.row.clocks,
		}
	}
	return out
}

// orbitLess is the deterministic tie-break ordering on the keys of one
// family's orbits: by memory shape, then canonical vector, then CPU
// layout. It reads both keys in place.
func orbitLess(a, b []byte) bool {
	ka, kb := parseKey(a), parseKey(b)
	return cmp.Or(cmp.Compare(ka.m, kb.m), cmp.Compare(ka.s, kb.s), cmp.Compare(ka.nc, kb.nc),
		comparePacked(ka.vec, kb.vec), comparePacked(ka.cpus, kb.cpus)) < 0
}

// comparePacked orders two packed vectors lexicographically by value,
// a proper prefix first.
func comparePacked(a, b []byte) int {
	for len(a) > 0 && len(b) > 0 {
		x, n := binary.Varint(a)
		y, m := binary.Varint(b)
		if x != y {
			return cmp.Compare(x, y)
		}
		a, b = a[n:], b[m:]
	}
	return cmp.Compare(len(a), len(b))
}

// FamilyNames lists the snapshot's family names in sorted order
// (matching the Metrics rendering order).
func (s ProvenanceSnapshot) FamilyNames() []string { return sortedKeys(s.Families) }

// pct renders a share as "12.3%", "-" when the denominator is zero.
func pct(n, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// Table renders the attribution report as aligned text tables: the
// per-family path split, the per-theorem analytic hit table, and per
// family the orbit-size histogram plus the top unexplained orbits.
func (s ProvenanceSnapshot) Table() string {
	out := "result provenance (per-family path split):\n"
	t := &textplot.Table{Header: []string{"family", "resolved", "analytic", "cache", "simulated", "orbits", "singleton", "mean orbit"}}
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		sim := f.SimScalar + f.SimPacked
		t.Add(name, f.Resolved, pct(f.Analytic, f.Resolved), pct(f.CacheHits, f.Resolved),
			pct(sim, f.Resolved), f.Orbits, pct(f.SingletonOrbits, f.Orbits),
			fmt.Sprintf("%.1f", f.MeanOrbitSize))
	}
	out += t.String()
	thm := &textplot.Table{Header: []string{"family", "theorem", "analytic hits"}}
	rows := 0
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		for _, id := range sortedKeys(f.Theorems) {
			thm.Add(name, id, f.Theorems[id])
			rows++
		}
	}
	if rows > 0 {
		out += "\nanalytic attribution (per-theorem hits):\n" + thm.String()
	}
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		if len(f.OrbitSizes) == 0 {
			continue
		}
		out += fmt.Sprintf("\n%s orbit sizes (placements per canonical key):\n", name)
		h := &textplot.Table{Header: []string{"orbit size", "orbits", "placements"}}
		for _, b := range f.OrbitSizes {
			label := strconv.FormatInt(b.Lo, 10)
			if b.Hi > b.Lo {
				label = fmt.Sprintf("%d-%d", b.Lo, b.Hi)
			}
			h.Add(label, b.Orbits, b.Placements)
		}
		out += h.String()
		if len(f.UnexplainedOrbits) > 0 {
			out += fmt.Sprintf("%s top unexplained orbits (most re-simulated, then most clocks):\n", name)
			u := &textplot.Table{Header: []string{"orbit", "hits", "misses", "cycle", "clocks"}}
			for _, o := range f.UnexplainedOrbits {
				u.Add(o.Label(), o.Hits, o.Misses, o.CycleLength, o.Clocks)
			}
			out += u.String()
		}
	}
	if s.DroppedOrbits > 0 {
		out += fmt.Sprintf("(%d orbits past the recorder capacity were not tracked per-orbit)\n", s.DroppedOrbits)
	}
	return out
}

// WriteCSV exports the snapshot in long form: one row per (family,
// record kind, label) with the counts attached. Kinds are "path"
// (label: analytic/cache/sim-scalar/sim-packed), "theorem" (label:
// the theorem identifier), "orbit_size" (label: the bucket), and
// "unexplained_orbit" (label: the canonical representative).
func (s ProvenanceSnapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"family", "kind", "label", "count", "placements", "clocks"}); err != nil {
		return err
	}
	row := func(family, kind, label string, count, placements, clocks int64) {
		cw.Write([]string{family, kind, label, //nolint:errcheck // Flush reports
			strconv.FormatInt(count, 10), strconv.FormatInt(placements, 10), strconv.FormatInt(clocks, 10)})
	}
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		row(name, "path", PathAnalytic.String(), f.Analytic, f.Analytic, 0)
		row(name, "path", PathCache.String(), f.CacheHits, f.CacheHits, 0)
		row(name, "path", PathSimScalar.String(), f.SimScalar, f.SimScalar, 0)
		row(name, "path", PathSimPacked.String(), f.SimPacked, f.SimPacked, f.SimClocks)
		for _, id := range sortedKeys(f.Theorems) {
			row(name, "theorem", id, f.Theorems[id], f.Theorems[id], 0)
		}
		for _, b := range f.OrbitSizes {
			label := strconv.FormatInt(b.Lo, 10)
			if b.Hi > b.Lo {
				label = fmt.Sprintf("%d-%d", b.Lo, b.Hi)
			}
			row(name, "orbit_size", label, b.Orbits, b.Placements, 0)
		}
		for _, o := range f.UnexplainedOrbits {
			row(name, "unexplained_orbit", o.Label(), o.Misses, o.Size, o.Clocks)
		}
	}
	cw.Flush()
	return cw.Error()
}
