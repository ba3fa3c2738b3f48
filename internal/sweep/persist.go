package sweep

// Cache persistence seam: the engine's in-RAM canonical-key cache can
// be drained to and seeded from CacheRecords — the portable, fully
// unpacked form of one cache entry. internal/cachestore appends the
// records the CacheSink emits to an on-disk log and feeds them back
// through SeedCache on the next start, which is how ivmserved warm
// loads a prior sweep's simulations (docs/SERVING.md). The seam lives
// here, not in cachestore, so internal/sweep stays free of a store
// dependency (cachestore imports sweep).

import (
	"fmt"
	"sort"

	"ivm/internal/memsys"
	"ivm/internal/rat"
)

// CacheRecord is one cyclic-state cache entry in portable form: the
// configuration family, memory shape, structural CPU layout, the
// CANONICAL configuration vector (d_1..d_N, b_1..b_N) — records always
// hold orbit representatives, never raw placements — and the orbit's
// effective bandwidth. The (Family, M, S, NC, CPUs, Vec) tuple is the
// content address: equal tuples are the same simulation by
// construction, so a store drops the repeats of one when it opens.
type CacheRecord struct {
	// Family is the configuration family (ConfigSpec.Family).
	Family string
	// M, S and NC are the memory shape: banks, sections (0 when
	// sectionless) and bank busy time.
	M, S, NC int
	// CPUs is the per-stream issuing CPU index, in stream order.
	CPUs []int
	// Vec is the canonical configuration vector (d_1..d_N, b_1..b_N).
	Vec []int
	// BW is the orbit's effective bandwidth in lowest terms.
	BW rat.Rational
}

// Validate checks the record's shape invariants — the ones key
// construction and replay rely on, not full spec validation (a record
// does not know which streams were swept).
func (r CacheRecord) Validate() error {
	if r.Family == "" {
		return fmt.Errorf("cache record: empty family")
	}
	if r.M <= 0 || r.NC <= 0 || r.S < 0 {
		return fmt.Errorf("cache record: shape m=%d s=%d nc=%d", r.M, r.S, r.NC)
	}
	if len(r.CPUs) == 0 || len(r.Vec) != 2*len(r.CPUs) {
		return fmt.Errorf("cache record: %d cpus, %d vector elements", len(r.CPUs), len(r.Vec))
	}
	if r.BW.Den <= 0 {
		return fmt.Errorf("cache record: bandwidth %d/%d", r.BW.Num, r.BW.Den)
	}
	return nil
}

// key builds the record's in-RAM cache key. The key carries the policy
// code read off the family's suffixes and not the name, so the name
// must be the one the record's sections, CPUs and policy derive: a
// record whose family contradicts its CPU layout or its policy is
// refused, as is a consecutive mapping without sections.
func (r CacheRecord) key() (keyBuf, error) {
	pol := familyPolicy(r.Family)
	if r.S == 0 && memsys.SectionMapping(pol&1) == memsys.ConsecutiveSections {
		return keyBuf{}, fmt.Errorf("cache record: family %q needs sections, s=0", r.Family)
	}
	var cb, fb [familyBufLen]byte
	cpus := appendPacked(cb[:0], r.CPUs)
	family := appendFamily(fb[:0], r.S, cpus, pol)
	if string(family) != r.Family {
		return keyBuf{}, fmt.Errorf("cache record: family %q contradicts s=%d cpus=%v, which make %q",
			r.Family, r.S, r.CPUs, string(family))
	}
	k := newKeyBuf(family, pol, r.M, r.S, r.NC, cpus)
	k.setVec(r.Vec)
	return k, nil
}

// CacheSink receives one CacheRecord per simulation, under the
// simulated orbit's canonical vector (see Options.CacheSink). It is implemented by
// cachestore.Store; implementations must be safe for concurrent use —
// the engine's workers call Put from their goroutines.
type CacheSink interface {
	// Put persists one record. Errors are the sink's to surface (the
	// hot path does not check them); Store exposes its last append
	// error through Health.
	Put(rec CacheRecord)
}

// SeedCache loads one record into the engine's in-RAM cache without
// re-simulating, so a warm start answers the record's whole orbit with
// path=cache. Records are trusted (they come from this engine's own
// CacheSink via a store that checksums its log); only shape invariants
// and the family's agreement with the CPU layout and policy are
// checked. Seeding does not re-emit to the CacheSink and is a no-op
// error when caching is disabled.
func (e *Engine) SeedCache(rec CacheRecord) error {
	if e.cache == nil {
		return fmt.Errorf("sweep: seeding a cache-disabled engine")
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("sweep: %v", err)
	}
	k, err := rec.key()
	if err != nil {
		return fmt.Errorf("sweep: %v", err)
	}
	e.cache.put(&k, rec.BW)
	return nil
}

// CacheRecords drains the engine's in-RAM cache into portable records,
// sorted deterministically (family, shape, CPU layout, vector).
// Analytically gated placements never enter the cache, and neither do
// the orbits a spec class's lead simulates in TripleGrid, NStreamGrid
// or SpecGrid (see Engine.specGrid): the records hold the orbits the
// cached route simulated (or SeedCache loaded) and the shard drops
// kept. A CacheSink receives every simulated orbit; that is how
// ivmsweep -cache-export exports a whole run.
func (e *Engine) CacheRecords() []CacheRecord {
	if e.cache == nil {
		return nil
	}
	var out []CacheRecord
	var fb [familyBufLen]byte
	add := func(key []byte, v rat.Rational) {
		p := parseKey(key)
		out = append(out, CacheRecord{
			Family: string(p.appendFamily(fb[:0])),
			M:      p.m, S: p.s, NC: p.nc,
			CPUs: unpackInts(p.cpus),
			Vec:  unpackInts(p.vec),
			BW:   v,
		})
	}
	for i := range e.cache.shards {
		s := &e.cache.shards[i]
		s.mu.Lock()
		for k, v := range s.m {
			add(k.bytes(), v)
		}
		for k, v := range s.spill {
			add([]byte(k), v)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// less is the deterministic export ordering on records.
func (r CacheRecord) less(o CacheRecord) bool {
	if r.Family != o.Family {
		return r.Family < o.Family
	}
	if r.M != o.M {
		return r.M < o.M
	}
	if r.S != o.S {
		return r.S < o.S
	}
	if r.NC != o.NC {
		return r.NC < o.NC
	}
	if c := intsCmp(r.CPUs, o.CPUs); c != 0 {
		return c < 0
	}
	return intsCmp(r.Vec, o.Vec) < 0
}

// intsCmp orders int slices lexicographically, shorter first on ties.
func intsCmp(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
