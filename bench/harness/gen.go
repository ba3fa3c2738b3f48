package harness

import (
	"math/rand/v2"

	"ivm/internal/serve"
)

// The input generators. Every input is a pure function of the seed
// (and, for batches, the batch index), so a run can stop at any point
// and the inputs it did send are the same on every machine. math/rand/v2's
// PCG is a specified generator, stable across Go releases.

// rng returns the generator of one input stream: stream tells apart
// the independent streams drawn under one seed.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Generator streams. Each is a disjoint range of PCG stream numbers.
const (
	streamUniverse = 1 << 32 // serve-single spec universe
	streamClient   = 2 << 32 // serve-single request order, + client
	streamBatch    = 3 << 32 // batch workloads, + batch index
	streamSample   = 4 << 32 // trace-run layer sample
	streamOracle   = 5 << 32 // batch oracle re-check sample
	streamReplay   = 6 << 32 // restart-warm replay order
	streamWarmup   = 7 << 32 // batch-cold set-up batch
)

// UniverseSize is the number of distinct specs serve-single draws from.
const UniverseSize = 4096

// Universe generates serve-single's spec universe: half sectionless
// stride pairs on m ∈ {13, 16, 32} with n_c ∈ 2..6, half stride
// triples on m ∈ {13, 16} with n_c = 4, every start drawn uniformly.
// Pair placements are mostly answered by the analytic gate; triples
// exercise canonicalisation and the cache.
func Universe(seed uint64, n int) []serve.SpecJSON {
	r := rng(seed, streamUniverse)
	out := make([]serve.SpecJSON, n)
	for i := range out {
		if i%2 == 0 {
			m := []int{13, 16, 32}[r.IntN(3)]
			out[i] = specJSON(r, m, 2+r.IntN(5), []int{0, 1})
		} else {
			m := []int{13, 16}[r.IntN(2)]
			out[i] = specJSON(r, m, 4, []int{0, 1, 2})
		}
	}
	return out
}

// BatchSize is the number of specs in one /v1/batch request.
const BatchSize = 512

// Batch generates batch i of the batch workloads: BatchSize random
// 4-stream specs on an (m = 16, n_c = 4) memory shared by two CPUs.
// Four streams are outside the analytic gate, and the placement space
// is so large that almost every spec is a new canonical orbit.
func Batch(seed uint64, i int) []serve.SpecJSON {
	return batchFrom(rng(seed, streamBatch+uint64(i)))
}

// WarmupBatch generates batch-cold's set-up batch: drawn like Batch,
// from a stream of its own, so that its orbits are not the timed
// batches'.
func WarmupBatch(seed uint64) []serve.SpecJSON {
	return batchFrom(rng(seed, streamWarmup))
}

func batchFrom(r *rand.Rand) []serve.SpecJSON {
	out := make([]serve.SpecJSON, BatchSize)
	for k := range out {
		cpus := make([]int, 4)
		for j := range cpus {
			cpus[j] = r.IntN(2)
		}
		out[k] = specJSON(r, 16, 4, cpus)
	}
	return out
}

// specJSON draws one sectionless spec: a nonzero distance and a start
// per stream, reduced into [0, m) as the API requires.
func specJSON(r *rand.Rand, m, nc int, cpus []int) serve.SpecJSON {
	sj := serve.SpecJSON{M: m, NC: nc, Streams: make([]serve.StreamJSON, len(cpus))}
	for j, cpu := range cpus {
		sj.Streams[j] = serve.StreamJSON{D: 1 + r.IntN(m-1), B: r.IntN(m), CPU: cpu}
	}
	return sj
}
