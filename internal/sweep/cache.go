package sweep

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"ivm/internal/rat"
)

// cacheKey identifies one cyclic steady state in canonical
// (orbit-minimal) form: the spec's configuration family, the memory
// shape (m, s, n_c), the structural CPU layout, and the packed
// configuration vector (d_1..d_N, b_1..b_N) after canonicalisation
// through the spec's pipeline (see compiledSpec.key and
// docs/CACHING.md). The CPU layout is part of the key because two
// specs with equal vectors but different port topologies are different
// simulations; the family string alone does not pin it for the generic
// "streamN"/"sectionN" shapes.
type cacheKey struct {
	family   string
	m, s, nc int
	cpus     string
	vec      string
}

// packInts encodes a vector as a compact varint string for use as a
// map-key component.
func packInts(v []int) string {
	b := make([]byte, 0, 2*len(v))
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return string(b)
}

// unpackInts inverts packInts (differential tests reconstruct cached
// configurations from their keys).
func unpackInts(s string) []int {
	b := []byte(s)
	var out []int
	for len(b) > 0 {
		x, n := binary.Varint(b)
		if n <= 0 {
			panic("sweep: corrupt packed vector")
		}
		out = append(out, int(x))
		b = b[n:]
	}
	return out
}

// shard spreads keys over the cache shards: an FNV-style mix of every
// key component, finished with the murmur3 64-bit avalanche, whose top
// bits select the shard. The cache is itself a cacheShardCount-way
// interleaved memory, and the mix alone repeats its low bits with
// period 2: h % 16 sent every 4-stream key to the 8 odd shards, as a
// stride sharing a factor with m reaches only m/gcd(d, m) banks. So
// the index must come from avalanched high bits. There is no
// per-process seed: shard placement repeats from run to run.
func (k cacheKey) shard() int {
	h := uint64(2166136261)
	mix := func(v int) {
		h ^= uint64(uint32(v))
		h *= 16777619
	}
	for i := 0; i < len(k.family); i++ {
		mix(int(k.family[i]))
	}
	mix(k.m)
	mix(k.s)
	mix(k.nc)
	for i := 0; i < len(k.cpus); i++ {
		mix(int(k.cpus[i]))
	}
	for i := 0; i < len(k.vec); i++ {
		mix(int(k.vec[i]))
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h >> (64 - cacheShardBits))
}

const (
	cacheShardBits  = 4
	cacheShardCount = 1 << cacheShardBits
)

// bwCache is a sharded, size-bounded memoization cache of cyclic-state
// bandwidths. Sharding keeps lock contention off the workers' hot
// path; eviction is generational — a full shard is dropped wholesale
// rather than tracking recency, which is cheap and, because cached
// values are pure functions of the key, only ever costs a recompute.
// Shard maps grow with their own occupancy rather than being
// preallocated at the cap, so a lightly used cache does not hold
// perShard empty slots in every shard. All configuration families share the shards
// and the size budget; evicted counts the entries the drops discarded.
type bwCache struct {
	perShard int
	evicted  atomic.Int64
	shards   [cacheShardCount]bwShard
}

type bwShard struct {
	mu sync.Mutex
	m  map[cacheKey]rat.Rational
}

// newBWCache builds a cache bounded at roughly size entries in total.
func newBWCache(size int) *bwCache {
	per := size / cacheShardCount
	if per < 1 {
		per = 1
	}
	return &bwCache{perShard: per}
}

func (c *bwCache) get(k cacheKey) (rat.Rational, bool) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

func (c *bwCache) put(k cacheKey, v rat.Rational) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	if len(s.m) >= c.perShard {
		c.evicted.Add(int64(len(s.m)))
		s.m = nil
	}
	if s.m == nil {
		s.m = make(map[cacheKey]rat.Rational)
	}
	s.m[k] = v
	s.mu.Unlock()
}

// Len counts the entries currently cached across all shards.
func (c *bwCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
