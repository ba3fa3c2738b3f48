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
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

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
// Each family's rows are keyed by one canonical orbit's packed memory
// shape and canonical configuration vector, (m, s, n_c, d_1..d_N,
// b_1..b_N) as packInts packs it: the coordinates cacheKey uses, minus
// the CPU layout, which the family's shape fixes for every sweep the
// CLIs run.
type Provenance struct {
	mu        sync.Mutex
	maxOrbits int
	rows      int // orbit rows tracked across all families
	orbits    map[string]map[string]*orbitProvenance
	dropped   int64
	key       []byte // observe's key scratch, so a known row allocates nothing
}

// orbitProvenance is the observed population of one canonical orbit.
type orbitProvenance struct {
	m, s, nc     int   // the memory shape
	vec          []int // canonical configuration vector (d_1..d_N, b_1..b_N)
	hits, misses int64
	cycleLen     int64 // steady-state period of the last simulation
	clocks       int64 // lead + cycle clocks across re-simulations
}

// NewProvenance builds a recorder tracking at most maxOrbits distinct
// canonical orbits (0 selects DefaultProvenanceOrbits); past the
// bound, further new orbits are only counted as dropped.
func NewProvenance(maxOrbits int) *Provenance {
	if maxOrbits <= 0 {
		maxOrbits = DefaultProvenanceOrbits
	}
	return &Provenance{maxOrbits: maxOrbits, orbits: make(map[string]map[string]*orbitProvenance)}
}

// observe adds one canonicalised or simulated placement of cs to its
// orbit's row: a cache hit, or a simulation with its steady state
// (cycle length and lead+cycle clocks). cs.vec holds the configuration
// vector that keyed the cache or was simulated. The row's key is built
// in the recorder's scratch, so only a new row allocates.
func (p *Provenance) observe(cs *compiledSpec, r Resolution) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fam := p.orbits[cs.family]
	if fam == nil {
		fam = make(map[string]*orbitProvenance)
		p.orbits[cs.family] = fam
	}
	p.key = appendPacked(appendPacked(p.key[:0], []int{cs.spec.M, cs.spec.S, cs.spec.NC}), cs.vec)
	o := fam[string(p.key)]
	if o == nil {
		if p.rows >= p.maxOrbits {
			p.dropped++
			return
		}
		o = &orbitProvenance{m: cs.spec.M, s: cs.spec.S, nc: cs.spec.NC, vec: append([]int(nil), cs.vec...)}
		fam[string(p.key)] = o
		p.rows++
	}
	if r.Path == PathCache {
		o.hits++
		return
	}
	o.misses++
	o.cycleLen = r.CycleLength
	o.clocks += r.Clocks
}

// --- Aggregated snapshot ------------------------------------------------

// OrbitInfo is the observed population of one canonical orbit in a
// provenance snapshot: how many placements canonicalised onto its key,
// split into cache hits (reused simulations) and misses (simulations
// run), with the simulation cost attached.
type OrbitInfo struct {
	// M, S, NC and Vec pin the orbit's canonical representative: the
	// memory shape and the configuration vector (d_1..d_N, b_1..b_N).
	M   int   `json:"m"`
	S   int   `json:"s,omitempty"`
	NC  int   `json:"nc"`
	Vec []int `json:"vec"`
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
// "m=13 nc=4 d=[1 6] b=[0 7]".
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
// to call concurrently with recording.
func (p *Provenance) view(tally map[string]FamilyProvenance) ProvenanceSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProvenanceSnapshot{DroppedOrbits: p.dropped}
	for name, fp := range tally {
		fam := p.orbits[name]
		orbits := make([]OrbitInfo, 0, len(fam))
		for _, o := range fam {
			orbits = append(orbits, OrbitInfo{
				M: o.m, S: o.s, NC: o.nc, Vec: o.vec,
				Hits: o.hits, Misses: o.misses, Size: o.hits + o.misses,
				CycleLength: o.cycleLen, Clocks: o.clocks,
			})
		}
		fp.Orbits = int64(len(orbits))
		var placements int64
		for _, o := range orbits {
			placements += o.Size
			if o.Size == 1 {
				fp.SingletonOrbits++
			}
		}
		if fp.Orbits > 0 {
			fp.MeanOrbitSize = float64(placements) / float64(fp.Orbits)
		}
		fp.OrbitSizes = orbitSizeHistogram(orbits)
		fp.TopOrbits = topOrbits(orbits, TopOrbitK, func(a, b OrbitInfo) bool {
			if a.Size != b.Size {
				return a.Size > b.Size
			}
			return orbitLess(a, b)
		})
		unexplained := orbits[:0]
		for _, o := range orbits {
			if o.Misses > 0 {
				unexplained = append(unexplained, o)
			}
		}
		fp.UnexplainedOrbits = topOrbits(unexplained, TopOrbitK, func(a, b OrbitInfo) bool {
			if a.Misses != b.Misses {
				return a.Misses > b.Misses
			}
			if a.Clocks != b.Clocks {
				return a.Clocks > b.Clocks
			}
			return orbitLess(a, b)
		})
		if s.Families == nil {
			s.Families = make(map[string]FamilyProvenance)
		}
		s.Families[name] = fp
	}
	return s
}

// orbitLess is the deterministic tie-break ordering on orbits: by
// memory shape, then canonical vector.
func orbitLess(a, b OrbitInfo) bool {
	if a.M != b.M {
		return a.M < b.M
	}
	if a.S != b.S {
		return a.S < b.S
	}
	if a.NC != b.NC {
		return a.NC < b.NC
	}
	for i := range a.Vec {
		if i >= len(b.Vec) {
			return false
		}
		if a.Vec[i] != b.Vec[i] {
			return a.Vec[i] < b.Vec[i]
		}
	}
	return len(a.Vec) < len(b.Vec)
}

// topOrbits sorts a copy of orbits by less and returns the first k.
func topOrbits(orbits []OrbitInfo, k int, less func(a, b OrbitInfo) bool) []OrbitInfo {
	out := append([]OrbitInfo(nil), orbits...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// orbitSizeHistogram buckets orbit populations into power-of-two bins
// (1, 2, 3-4, 5-8, ...).
func orbitSizeHistogram(orbits []OrbitInfo) []OrbitSizeBucket {
	if len(orbits) == 0 {
		return nil
	}
	var buckets []OrbitSizeBucket
	find := func(size int64) *OrbitSizeBucket {
		lo, hi := int64(1), int64(1)
		for size > hi {
			lo = hi + 1
			hi *= 2
		}
		for i := range buckets {
			if buckets[i].Lo == lo {
				return &buckets[i]
			}
		}
		buckets = append(buckets, OrbitSizeBucket{Lo: lo, Hi: hi})
		return &buckets[len(buckets)-1]
	}
	for _, o := range orbits {
		b := find(o.Size)
		b.Orbits++
		b.Placements += o.Size
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Lo < buckets[j].Lo })
	return buckets
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
