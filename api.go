package ivm

// This file is the public facade of the library: downstream users
// import the module root (the internal/ packages are implementation).
// It exports what README.md, docs/ and examples/quickstart use: the
// pair classifier (Theorems 1–7), the simulator's exact steady-state
// bandwidth and paper-style timeline, and the parallel sweep engine
// with the spec type it consumes. The root Examples in example_test.go
// compile and run the README snippet.

import (
	"ivm/internal/core"
	"ivm/internal/figures"
	"ivm/internal/memsys"
	"ivm/internal/rat"
	"ivm/internal/sweep"
)

// Rational is an exact fraction; effective bandwidths are reported in
// this form (3/2 means exactly 3/2).
type Rational = rat.Rational

// --- Analytic model (Theorems 1–9, Eqs. 29–32) -------------------------

// Analysis is the analytic verdict on a pair of access streams.
type Analysis = core.Analysis

// Regime names the conflict regime a stream pair falls into.
type Regime = core.Regime

// Conflict regimes, in decreasing order of achievable bandwidth.
const (
	RegimeConflictFree    = core.RegimeConflictFree
	RegimeDisjointFree    = core.RegimeDisjointFree
	RegimeUniqueBarrier   = core.RegimeUniqueBarrier
	RegimeBarrierPossible = core.RegimeBarrierPossible
	RegimeConflicting     = core.RegimeConflicting
	RegimeSelfConflict    = core.RegimeSelfConflict
)

// Analyze classifies two infinite access streams with distances d1, d2
// on an m-way interleaved memory with bank busy time nc (s = m; stream
// 1 holds the fixed priority).
func Analyze(m, nc, d1, d2 int) Analysis { return core.Analyze(m, nc, d1, d2) }

// ReturnNumber is Theorem 1: r = m / gcd(m, d).
func ReturnNumber(m, d int) int { return core.ReturnNumber(m, d) }

// SingleStreamBandwidth is the one-stream law b_eff = min(1, r/nc).
func SingleStreamBandwidth(m, nc, d int) Rational {
	return core.SingleStreamBandwidth(m, nc, d)
}

// PairBandwidthBounds returns the provable sandwich on any pair's
// cyclic-state bandwidth: 1/nc <= b_eff <= the two-stream capacity.
func PairBandwidthBounds(m, nc, d1, d2 int) (lo, hi Rational) {
	return core.PairBandwidthBounds(m, nc, d1, d2)
}

// --- Memory-system simulator -------------------------------------------

// MemConfig configures a simulated memory system (banks, sections,
// bank busy time, CPUs, priority rule, section mapping).
type MemConfig = memsys.Config

// StreamSpec names an infinite bank-space stream (start, distance, CPU).
type StreamSpec = memsys.StreamSpec

// SteadyBandwidth builds a system from stream specs, detects the cyclic
// state and returns its exact b_eff.
func SteadyBandwidth(cfg MemConfig, maxClocks int64, specs ...StreamSpec) (Rational, error) {
	return memsys.SteadyBandwidth(cfg, maxClocks, specs...)
}

// Timeline runs the specs for the given clocks and renders the
// paper-style bank × clock diagram, one row per bank. Unlabelled
// streams are numbered from 1 in priority order. A sectioned config
// (0 < Sections < Banks) prefixes each row with its section and adds
// the paper's priority row (Figs. 8–9).
func Timeline(cfg MemConfig, clocks int64, specs ...StreamSpec) string {
	return figures.Figure{Config: cfg, Streams: specs}.Timeline(clocks)
}

// --- Parallel sweep engine ----------------------------------------------

// SweepOptions configures the parallel sweep engine (worker count,
// cyclic-state cache size, statistics collection).
type SweepOptions = sweep.Options

// SweepEngine shards grid sweeps over a worker pool with a memoization
// cache of cyclic steady states; results are byte-identical to the
// sequential sweep in any configuration.
type SweepEngine = sweep.Engine

// NewSweepEngine builds a parallel sweep engine; zero options select
// GOMAXPROCS workers and the default cache size.
func NewSweepEngine(opt SweepOptions) *SweepEngine { return sweep.NewEngine(opt) }

// SweepStream is one access stream of a SweepConfigSpec: distance,
// starting bank, issuing CPU, and whether the sweep enumerates its
// start over all m banks (Sweep) or keeps it fixed at B.
type SweepStream = sweep.Stream

// SweepConfigSpec describes one sweepable memory configuration — m
// banks, s sections (0 for sectionless), bank busy time nc, and any
// number of streams. The pair, triple and section sweeps are all
// special cases; Family() names the cache family a spec compiles into.
type SweepConfigSpec = sweep.ConfigSpec
