package sweep

import (
	"math/rand/v2"
	"testing"

	"ivm/internal/rat"
)

// keyAt packs placement b of cs and returns its cache key, the key the
// answer route puts on a miss.
func keyAt(cs *compiledSpec, b []int) cacheKey {
	cs.pack(b)
	return cs.key()
}

// spreadKeys collects the distinct canonical cache keys of every
// placement of specs that the engine would cache: specFold enumerates
// the placements, and those the analytic gate answers are left out, as
// worker.resolve leaves them out.
func spreadKeys(w *worker, specs []ConfigSpec, keys map[cacheKey]struct{}) {
	for _, spec := range specs {
		cs := w.compile(spec)
		specFold(spec, func(b []int) rat.Rational {
			if cs.gate != nil {
				if v, ok := cs.gate.BandwidthAt(b[0], b[1]); ok {
					return v
				}
			}
			keys[keyAt(cs, b)] = struct{}{}
			return rat.One()
		})
	}
}

// The cache is a 16-way interleaved memory keyed by the canonical key:
// its shard index must reach every shard evenly on the key shapes the
// engine really caches — random fixed-placement 4-stream specs on an
// (m = 16, n_c = 4) memory shared by two CPUs, and the census pair,
// section and triple grids. An index taken from the low bits of the
// FNV mix sent every 4-stream key to the 8 odd shards.
func TestCacheShardSpread(t *testing.T) {
	w := &worker{e: NewEngine(Options{Workers: 1})}
	keys := make(map[cacheKey]struct{})

	r := rand.New(rand.NewPCG(1, 3<<32))
	stream4 := make([]ConfigSpec, 6000)
	for k := range stream4 {
		spec := ConfigSpec{M: 16, NC: 4, Streams: make([]Stream, 4)}
		for j := range spec.Streams {
			spec.Streams[j] = Stream{D: 1 + r.IntN(15), B: r.IntN(16), CPU: r.IntN(2)}
		}
		stream4[k] = spec
	}
	spreadKeys(w, stream4, keys)
	for _, g := range [][2]int{{8, 2}, {12, 3}, {13, 4}, {16, 4}, {32, 2}} {
		spreadKeys(w, GridSpecs(g[0], 0, g[1]), keys)
	}
	for _, g := range [][3]int{{12, 3, 3}, {16, 4, 4}} {
		spreadKeys(w, GridSpecs(g[0], g[1], g[2]), keys)
	}
	spreadKeys(w, tripleSpecs(13, 4), keys)
	if len(keys) < 10000 {
		t.Fatalf("only %d distinct keys, want at least 10000", len(keys))
	}

	var count [cacheShardCount]int
	for k := range keys {
		count[k.shard()]++
	}
	mean := float64(len(keys)) / cacheShardCount
	for i, n := range count {
		if dev := (float64(n) - mean) / mean; dev < -0.15 || dev > 0.15 {
			t.Errorf("shard %d holds %d of %d keys (mean %.0f, %+.1f%%), want within ±15%%",
				i, n, len(keys), mean, 100*dev)
		}
	}
	t.Logf("%d keys, shard counts %v", len(keys), count)
}
