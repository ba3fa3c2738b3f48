package sweep

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"ivm/internal/rat"
)

// A cache key identifies one cyclic steady state in canonical
// (orbit-minimal) form: the spec's policy, the memory shape (m, s,
// n_c), the structural CPU layout, and the packed configuration vector
// (d_1..d_N, b_1..b_N) after canonicalisation through the spec's
// pipeline (see compiledSpec.pack and docs/CACHING.md). The CPU layout
// is part of the key because two specs with equal vectors but
// different port topologies are different simulations. The key holds
// no family name: (s, the CPU layout) fix the name's stem and the
// policy code its suffixes (appendFamily), so the keys partition the
// orbits exactly as ConfigSpec.Family does.
//
// A key is one byte string: the head, which the spec fixes, then the
// vector.
//
//	policy code (one byte, see policyCode),
//	varint m, varint s, varint n_c,
//	varint len(cpus), cpus (varint per stream),
//	vec (varint per coordinate, to the end)
//
// Every field is delimited, so equal strings are equal keys.

// cacheKeyInline is the longest key held inline in a cacheKey, so a
// cacheKey is 24 bytes. A census or batch key takes 11 to 17 bytes; a
// longer key (many streams, or a coordinate or shape of 64 or more,
// which takes two varint bytes) spills to a string.
const cacheKeyInline = 23

// cacheKey is a key of at most cacheKeyInline bytes, held inline and
// zero-padded beside its length. It holds no pointer, so a shard map
// of them is never scanned by the collector and a probe or a put
// builds no string.
type cacheKey struct {
	n uint8
	b [cacheKeyInline]byte
}

// inlineKey holds key in a cacheKey; it reports false when key is too
// long and must spill.
func inlineKey(key []byte) (cacheKey, bool) {
	var k cacheKey
	if len(key) > cacheKeyInline {
		return k, false
	}
	k.n = uint8(len(key))
	copy(k.b[:], key)
	return k, true
}

// bytes returns the key's byte string.
func (k *cacheKey) bytes() []byte { return k.b[:k.n] }

// keyBuf builds the cache keys of one spec: buf holds the spec's head
// and then the packed vector of the placement last packed, and mix is
// the shard hash state after the head, worked out once per spec.
type keyBuf struct {
	buf  []byte
	head int
	mix  uint64
}

// familyBufLen sizes the stack buffers a family name or a packed CPU
// layout is built in; a longer one only moves to the heap.
const familyBufLen = 32

// newKeyBuf builds the key head of a spec's policy code, memory shape
// and CPU layout (packed, appendPacked); family is the name
// appendFamily derives from them. The shard mix reads the name, not
// the policy code, so an orbit's shard does not depend on how the key
// spells its family: restart-warm's hit rate rests on shard placement
// (bench/README.md).
func newKeyBuf(family []byte, pol byte, m, s, nc int, cpus []byte) keyBuf {
	// Room for the head and a vector of 2N coordinates of up to two
	// bytes each, so packing a placement does not grow it.
	buf := make([]byte, 0, 1+len(cpus)+16+4*len(cpus))
	buf = append(buf, pol)
	buf = binary.AppendVarint(buf, int64(m))
	buf = binary.AppendVarint(buf, int64(s))
	buf = binary.AppendVarint(buf, int64(nc))
	buf = binary.AppendVarint(buf, int64(len(cpus)))
	buf = append(buf, cpus...)
	return keyBuf{buf: buf, head: len(buf), mix: headMix(family, m, s, nc, cpus)}
}

// setVec packs vec after the head.
func (k *keyBuf) setVec(vec []int) { k.buf = appendPacked(k.buf[:k.head], vec) }

// shard is the shard of the key setVec last packed.
func (k *keyBuf) shard() int { return finishShard(k.mix, k.buf[k.head:]) }

// keyParts are the decoded fields of a key.
type keyParts struct {
	pol       byte
	m, s, nc  int
	cpus, vec []byte
}

// parseKey decodes a key built by keyBuf. Keys never leave the
// process, so a malformed one is a bug and panics.
func parseKey(key []byte) keyParts {
	if len(key) == 0 {
		panic("sweep: empty cache key")
	}
	p := keyParts{pol: key[0]}
	key = key[1:]
	next := func() int {
		x, n := binary.Varint(key)
		if n <= 0 {
			panic("sweep: corrupt cache key")
		}
		key = key[n:]
		return int(x)
	}
	p.m, p.s, p.nc = next(), next(), next()
	n := next()
	p.cpus, p.vec = key[:n], key[n:]
	return p
}

// appendFamily appends the name of the key's configuration family.
func (p keyParts) appendFamily(dst []byte) []byte { return appendFamily(dst, p.s, p.cpus, p.pol) }

// packInts encodes a vector as a compact varint string for use as a
// map-key component.
func packInts(v []int) string {
	return string(appendPacked(make([]byte, 0, 2*len(v)), v))
}

// appendPacked appends packInts's encoding of v to dst.
func appendPacked(dst []byte, v []int) []byte {
	for _, x := range v {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

// unpackInts inverts packInts.
func unpackInts(b []byte) []int {
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

// headMix and finishShard spread keys over the cache shards: an
// FNV-style mix of the family's name, then every key component but
// the policy code (m, s and n_c, the packed CPU layout's bytes, then
// the packed vector's), finished with the murmur3 64-bit avalanche,
// whose top bits select the shard. The cache is itself a
// cacheShardCount-way interleaved memory, and the mix alone repeats its
// low bits with period 2: h % 16 sent every 4-stream key to the 8 odd
// shards, as a stride sharing a factor with m reaches only
// m/gcd(d, m) banks. So the index must come from avalanched high bits. There is no per-process seed: shard placement
// repeats from run to run. headMix mixes the head, which a spec fixes,
// so the answer route mixes only the vector per placement.
func headMix(family []byte, m, s, nc int, cpus []byte) uint64 {
	h := uint64(2166136261)
	for i := 0; i < len(family); i++ {
		h = mixShard(h, int(family[i]))
	}
	h = mixShard(h, m)
	h = mixShard(h, s)
	h = mixShard(h, nc)
	for _, c := range cpus {
		h = mixShard(h, int(c))
	}
	return h
}

func mixShard(h uint64, v int) uint64 {
	h ^= uint64(uint32(v))
	return h * 16777619
}

// finishShard mixes the packed vector into the head's state h and
// returns the shard index.
func finishShard(h uint64, vec []byte) int {
	for _, c := range vec {
		h = mixShard(h, int(c))
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

// bwShard holds its keys inline in m and spilled keys in spill; the
// two share the shard's bound and are dropped together.
type bwShard struct {
	mu    sync.Mutex
	m     map[cacheKey]rat.Rational
	spill map[string]rat.Rational
}

// newBWCache builds a cache bounded at roughly size entries in total.
func newBWCache(size int) *bwCache {
	per := size / cacheShardCount
	if per < 1 {
		per = 1
	}
	return &bwCache{perShard: per}
}

// get looks up the key k last packed. It allocates nothing: an inline
// key is built on the stack, and a spilled key's string(k.buf)
// conversion sits inside the map index expression, where the compiler
// makes it without allocating.
func (c *bwCache) get(k *keyBuf) (rat.Rational, bool) {
	s := &c.shards[k.shard()]
	var v rat.Rational
	var ok bool
	s.mu.Lock()
	if ik, in := inlineKey(k.buf); in {
		v, ok = s.m[ik]
	} else {
		v, ok = s.spill[string(k.buf)]
	}
	s.mu.Unlock()
	return v, ok
}

// put stores v under the key k last packed. An inline key allocates
// nothing beyond the map's own growth; only a spilled key builds its
// string.
func (c *bwCache) put(k *keyBuf, v rat.Rational) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	if n := len(s.m) + len(s.spill); n >= c.perShard {
		c.evicted.Add(int64(n))
		s.m, s.spill = nil, nil
	}
	if ik, in := inlineKey(k.buf); in {
		if s.m == nil {
			s.m = make(map[cacheKey]rat.Rational)
		}
		s.m[ik] = v
	} else {
		if s.spill == nil {
			s.spill = make(map[string]rat.Rational)
		}
		s.spill[string(k.buf)] = v
	}
	s.mu.Unlock()
}

// Len counts the entries currently cached across all shards.
func (c *bwCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m) + len(s.spill)
		s.mu.Unlock()
	}
	return n
}
