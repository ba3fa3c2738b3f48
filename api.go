package ivm

// This file is the public facade of the library: downstream users
// import the module root (the internal/ packages are implementation).
// It re-exports the analytic model, the memory-system simulator, the
// X-MP machine model and the figure reproductions through aliases and
// thin constructors, so the examples under examples/ translate directly
// to external code.

import (
	"io"

	"ivm/internal/core"
	"ivm/internal/explain"
	"ivm/internal/figures"
	"ivm/internal/machine"
	"ivm/internal/memsys"
	"ivm/internal/obs"
	"ivm/internal/rat"
	"ivm/internal/skew"
	"ivm/internal/stats"
	"ivm/internal/stream"
	"ivm/internal/sweep"
	"ivm/internal/trace"
	"ivm/internal/xmp"
)

// --- Exact arithmetic --------------------------------------------------

// Rational is an exact fraction; effective bandwidths are reported in
// this form (3/2 means exactly 3/2).
type Rational = rat.Rational

// NewRational returns num/den in lowest terms.
func NewRational(num, den int64) Rational { return rat.New(num, den) }

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

// PairGate is the analytic fast path for pair sweeps: the classifier
// verdict compiled once per (m, nc, d1, d2) and queried per placement,
// answering b_eff without simulation exactly where a theorem proves it.
type PairGate = core.PairGate

// NewPairGate compiles the analytic fast path for one distance pair.
func NewPairGate(m, nc, d1, d2 int) PairGate { return core.NewPairGate(m, nc, d1, d2) }

// NewPairGateUnder is NewPairGate gated on the arbitration policy: the
// pair theorems assume fixed priority, so any other rule yields an
// inactive gate and every placement falls through to simulation.
func NewPairGateUnder(m, nc, d1, d2 int, priority PriorityRule) PairGate {
	return core.NewPairGateUnder(m, nc, d1, d2, priority)
}

// ReturnNumber is Theorem 1: r = m / gcd(m, d).
func ReturnNumber(m, d int) int { return core.ReturnNumber(m, d) }

// SingleStreamBandwidth is the one-stream law b_eff = min(1, r/nc).
func SingleStreamBandwidth(m, nc, d int) Rational {
	return core.SingleStreamBandwidth(m, nc, d)
}

// ConflictFreeCondition is Theorem 3's Eq. 12.
func ConflictFreeCondition(m, nc, d1, d2 int) bool {
	return core.ConflictFreeCondition(m, nc, d1, d2)
}

// BarrierBandwidth is Eq. 29: b_eff = 1 + d1/d2 for a barrier.
func BarrierBandwidth(d1, d2 int) Rational { return core.BarrierBandwidth(d1, d2) }

// SaturationBound is the §IV capacity bound min(p, m/nc).
func SaturationBound(m, nc, p int) Rational { return core.SaturationBound(m, nc, p) }

// ConflictFreeAt is Eq. 8, the exact per-start criterion: the two
// free-running streams never collide.
func ConflictFreeAt(m, nc, b1, d1, b2, d2 int) bool {
	return core.PairConflictFreeAt(m, nc, b1, d1, b2, d2)
}

// PairIsomorphic reports the Appendix equivalence of distance pairs.
func PairIsomorphic(m, d1, d2, e1, e2 int) bool {
	return stream.PairIsomorphic(m, d1, d2, e1, e2)
}

// --- Memory-system simulator -------------------------------------------

// MemConfig configures a simulated memory system (banks, sections,
// bank busy time, CPUs, priority rule, section mapping).
type MemConfig = memsys.Config

// System is a running cycle-accurate memory simulation.
type System = memsys.System

// Cycle is a detected cyclic steady state with exact bandwidth.
type Cycle = memsys.Cycle

// StreamSpec names an infinite bank-space stream (start, distance, CPU).
type StreamSpec = memsys.StreamSpec

// Port is one access port with its conflict counters.
type Port = memsys.Port

// SectionMapping selects how banks are assigned to sections.
type SectionMapping = memsys.SectionMapping

// PriorityRule selects how simultaneous requests are arbitrated.
type PriorityRule = memsys.PriorityRule

// Section mappings and priority rules.
const (
	CyclicSections      = memsys.CyclicSections
	ConsecutiveSections = memsys.ConsecutiveSections
	FixedPriority       = memsys.FixedPriority
	CyclicPriority      = memsys.CyclicPriority
	RoundRobinPerCPU    = memsys.RoundRobinPerCPU
)

// ParsePriority parses a priority-rule name ("fixed", "cyclic",
// "rr-cpu") as printed by PriorityRule.String.
func ParsePriority(name string) (PriorityRule, error) { return memsys.ParsePriority(name) }

// ParseMapping parses a section-mapping name ("cyclic", "consecutive")
// as printed by SectionMapping.String.
func ParseMapping(name string) (SectionMapping, error) { return memsys.ParseMapping(name) }

// MemKernel selects the simulator's inner-loop implementation; see
// docs/KERNEL.md.
type MemKernel = memsys.Kernel

// The available simulator kernels: the scalar reference loop (the
// oracle) and the bit-packed bank-busy kernel, which produces identical
// grants, conflict classifications and cyclic states while running the
// busy set as bits plus an expiry event wheel. Switch with
// System.SetKernel.
const (
	KernelScalar = memsys.KernelScalar
	KernelPacked = memsys.KernelPacked
)

// NewSystem creates a memory system with plain modulo interleaving.
func NewSystem(cfg MemConfig) *System { return memsys.New(cfg) }

// NewSkewedSystem creates a memory system whose banks are linearly
// skewed (the conclusion's remedy): bank(i) = (i + s*floor(i/m)) mod m.
func NewSkewedSystem(cfg MemConfig, skewStep int) *System {
	return memsys.NewWithMapper(cfg, skew.Linear{M: cfg.Banks, S: skewStep})
}

// InfiniteStream returns a source issuing addr, addr+stride, … forever.
func InfiniteStream(addr, stride int64) memsys.Source {
	return memsys.NewInfiniteStrided(addr, stride)
}

// FiniteStream returns a source issuing n equally spaced requests.
func FiniteStream(addr, stride int64, n int) memsys.Source {
	return memsys.NewStrided(addr, stride, n)
}

// SteadyBandwidth builds a system from stream specs, detects the cyclic
// state and returns its exact b_eff.
func SteadyBandwidth(cfg MemConfig, maxClocks int64, specs ...StreamSpec) (Rational, error) {
	return memsys.SteadyBandwidth(cfg, maxClocks, specs...)
}

// Timeline runs the specs for the given clocks and renders the
// paper-style bank × clock diagram.
func Timeline(cfg MemConfig, clocks int64, specs ...StreamSpec) string {
	sys := memsys.New(cfg)
	rec := trace.Attach(sys, 0, clocks)
	for i, sp := range specs {
		label := sp.Label
		if label == "" {
			label = string(rune('1' + i%9))
		}
		sys.AddPort(sp.CPU, label, memsys.NewInfiniteStrided(int64(sp.Start), int64(sp.Distance)))
	}
	sys.Run(clocks)
	if s := cfg.Sections; s != 0 && s != cfg.Banks {
		return rec.RenderWithSections(sys.Section)
	}
	return rec.Render()
}

// --- Machine model and the Fig. 10 experiment --------------------------

// MachineConfig sets the vector CPU's timing parameters.
type MachineConfig = machine.Config

// DefaultMachine returns Cray X-MP-flavoured parameters.
func DefaultMachine() MachineConfig { return machine.DefaultConfig() }

// TriadResult is one point of the Fig. 10 series.
type TriadResult = xmp.TriadResult

// XMPMemConfig is the paper's 16-bank, 4-section, n_c = 4, 2-CPU memory.
func XMPMemConfig() MemConfig { return xmp.MemConfig() }

// TriadExperiment runs the §IV triad for one increment; background
// selects whether the other CPU saturates memory at distance 1.
func TriadExperiment(inc, n int, background bool, cfg MachineConfig) TriadResult {
	return xmp.TriadExperiment(inc, n, background, cfg)
}

// TriadSweep reproduces Fig. 10 for INC = 1..maxInc.
func TriadSweep(maxInc, n int, background bool, cfg MachineConfig) []TriadResult {
	return xmp.TriadSweep(maxInc, n, background, cfg)
}

// TriadVerdict returns the §IV pairwise reasoning for one triad
// increment against the d=1 environment: the isomorphic canonical pair,
// the regime, and — for barriers — whether the triad wins.
func TriadVerdict(inc int) (canonical [2]int, regime Regime, triadWins, isBarrier bool) {
	v := explain.TriadReport(inc).Verdicts[0]
	return v.Canonical, v.Analysis.Regime, v.WorkWins, v.HasRole
}

// --- Parallel sweep engine ----------------------------------------------

// SweepOptions configures the parallel sweep engine (worker count,
// cyclic-state cache size, statistics collection).
type SweepOptions = sweep.Options

// SweepMetrics are the engine's cumulative counters (cache hits and
// misses, cycles found, steps simulated, pairs swept).
type SweepMetrics = sweep.Metrics

// SweepEngine shards grid sweeps over a worker pool with a memoization
// cache of cyclic steady states; results are byte-identical to the
// sequential sweep in any configuration.
type SweepEngine = sweep.Engine

// SweepPairResult compares analysis and simulation for one pair.
type SweepPairResult = sweep.PairResult

// SweepSummary aggregates a grid sweep by conflict regime.
type SweepSummary = sweep.Summary

// DefaultSweepCacheSize is the engine's default cache capacity.
const DefaultSweepCacheSize = sweep.DefaultCacheSize

// NewSweepEngine builds a parallel sweep engine; zero options select
// GOMAXPROCS workers and the default cache size.
func NewSweepEngine(opt SweepOptions) *SweepEngine { return sweep.NewEngine(opt) }

// SweepGrid sweeps every non-self-conflicting distance pair of an
// (m, nc) memory sequentially; NewSweepEngine(...).Grid is the parallel
// equivalent.
func SweepGrid(m, nc int) []SweepPairResult { return sweep.Grid(m, nc) }

// SummariseSweep aggregates a grid sweep.
func SummariseSweep(m, nc int, results []SweepPairResult) SweepSummary {
	return sweep.Summarise(m, nc, results)
}

// SweepTripleResult compares one distance triple's simulated cyclic
// states over all relative placements with the per-placement capacity
// bounds.
type SweepTripleResult = sweep.TripleSweepResult

// SweepTripleGridSummary aggregates an all-placements triple sweep.
type SweepTripleGridSummary = sweep.TripleGridSummary

// SweepSectionPairResult compares the section theorems with simulation
// for one distance pair of a sectioned (m, s, nc) memory.
type SweepSectionPairResult = sweep.SectionPairResult

// SweepTripleGrid sweeps every unordered distance triple of an (m, nc)
// memory over all m^2 relative placements sequentially;
// NewSweepEngine(...).TripleGrid is the parallel, cached equivalent.
func SweepTripleGrid(m, nc int) []SweepTripleResult { return sweep.TripleGrid(m, nc) }

// SummariseSweepTripleGrid aggregates an all-placements triple sweep.
func SummariseSweepTripleGrid(m, nc int, results []SweepTripleResult) SweepTripleGridSummary {
	return sweep.SummariseTripleGrid(m, nc, results)
}

// SweepSectionGrid sweeps every pair of a sectioned (m, s, nc) memory
// sequentially; NewSweepEngine(...).SectionGrid is the parallel, cached
// equivalent.
func SweepSectionGrid(m, s, nc int) []SweepSectionPairResult {
	return sweep.SectionGrid(m, s, nc)
}

// PairBandwidthBounds returns the provable sandwich on any pair's
// cyclic-state bandwidth: 1/nc <= b_eff <= the two-stream capacity.
func PairBandwidthBounds(m, nc, d1, d2 int) (lo, hi Rational) {
	return core.PairBandwidthBounds(m, nc, d1, d2)
}

// --- Generic N-stream sweeps ---------------------------------------------

// SweepStream is one access stream of a SweepConfigSpec: distance,
// starting bank, issuing CPU, and whether the sweep enumerates its
// start over all m banks (Sweep) or keeps it fixed at B.
type SweepStream = sweep.Stream

// SweepConfigSpec describes one sweepable memory configuration — m
// banks, s sections (0 for sectionless), bank busy time nc, and any
// number of streams. The pair, triple and section sweeps are all
// special cases; Family() names the cache family a spec compiles into.
type SweepConfigSpec = sweep.ConfigSpec

// SweepSpecResult is the simulated range and capacity-bound comparison
// of one spec over the enumerated placements of its swept streams.
type SweepSpecResult = sweep.SpecResult

// NewPairSpec is the pair sweep as a spec: stream 1 fixed at bank 0,
// stream 2 swept, one stream per CPU.
func NewPairSpec(m, nc, d1, d2 int) SweepConfigSpec { return sweep.PairSpec(m, nc, d1, d2) }

// NewSectionPairSpec is the section-theorem pair sweep as a spec: both
// streams on one CPU of an (m, s, nc) sectioned memory.
func NewSectionPairSpec(m, s, nc, d1, d2 int) SweepConfigSpec {
	return sweep.SectionPairSpec(m, s, nc, d1, d2)
}

// NewConsecSectionPairSpec is NewSectionPairSpec under the consecutive
// bank-to-section mapping (the Fig. 9 remedy): section(j) =
// floor(j / (m/s)) instead of the cyclic j mod s.
func NewConsecSectionPairSpec(m, s, nc, d1, d2 int) SweepConfigSpec {
	return sweep.ConsecSectionPairSpec(m, s, nc, d1, d2)
}

// NewTripleSpec is the all-placements triple sweep as a spec: stream 1
// fixed at bank 0, streams 2 and 3 swept, one stream per CPU.
func NewTripleSpec(m, nc int, d [3]int) SweepConfigSpec { return sweep.TripleSpec(m, nc, d) }

// NewNStreamSpec generalises the pair and triple sweeps to p streams,
// one per CPU: stream 1 fixed at bank 0, the rest swept.
func NewNStreamSpec(m, nc int, d []int) SweepConfigSpec { return sweep.NStreamSpec(m, nc, d) }

// SweepSpecGrid sweeps a list of specs sequentially, each over all
// placements of its swept streams, one result per spec in input order;
// NewSweepEngine(...).SpecGrid is the parallel, cached equivalent.
func SweepSpecGrid(specs []SweepConfigSpec) []SweepSpecResult { return sweep.SpecGrid(specs) }

// SweepNStreamGrid sweeps every nondecreasing n-tuple of allowed
// distances of an (m, nc) memory over all placements sequentially;
// NewSweepEngine(...).NStreamGrid is the parallel, cached equivalent.
func SweepNStreamGrid(m, nc, n int) []SweepSpecResult { return sweep.NStreamGrid(m, nc, n) }

// SummariseSweepSpecGrid aggregates an N-stream grid sweep.
func SummariseSweepSpecGrid(results []SweepSpecResult) SweepTripleGridSummary {
	return sweep.SummariseSpecGrid(results)
}

// --- Resolution and cache persistence -----------------------------------

// SweepResolution is the engine's answer to one fixed-placement query:
// the effective bandwidth plus the provenance of the answer (path,
// theorem identifier, canonical orbit, simulation cost). See
// SweepEngine.Resolve and ResolveBatch — the query path behind
// ivmserved.
type SweepResolution = sweep.Resolution

// SweepPath identifies the engine route that resolved one placement.
type SweepPath = sweep.Path

// The provenance paths a resolution can report.
const (
	SweepPathAnalytic  = sweep.PathAnalytic
	SweepPathCache     = sweep.PathCache
	SweepPathSimScalar = sweep.PathSimScalar
	SweepPathSimPacked = sweep.PathSimPacked
)

// SweepCacheRecord is one cyclic-state cache entry in portable form —
// the unit of cache persistence (SweepEngine.CacheRecords/SeedCache,
// SweepOptions.CacheSink and the internal cachestore behind
// ivmsweep -cache-export / ivmserved -cache-dir).
type SweepCacheRecord = sweep.CacheRecord

// SweepCacheSink receives one SweepCacheRecord per newly simulated
// canonical orbit (SweepOptions.CacheSink).
type SweepCacheSink = sweep.CacheSink

// --- Observability ------------------------------------------------------

// TraceEvent is one recorded per-clock simulator outcome (grant or
// classified delay) without live object references.
type TraceEvent = obs.Event

// Tracer is the ring-buffered event tracer; it implements the
// simulator's listener seam and keeps exact atomic totals.
type Tracer = obs.Tracer

// TracerOptions size the tracer's event ring.
type TracerOptions = obs.TracerOptions

// TraceStats are a tracer's exact totals and ring state.
type TraceStats = obs.TraceStats

// MetricsSnapshot bundles engine, statistics and trace metrics into
// one JSON document (the CLIs' -metrics-out).
type MetricsSnapshot = obs.Snapshot

// MetricsRegistry serves live, named metrics sources over HTTP along
// with expvar and pprof.
type MetricsRegistry = obs.Registry

// EngineSnapshot is the sweep engine's observability view: counters,
// cache hit rate, per-worker utilisation, detection latency.
type EngineSnapshot = sweep.Snapshot

// StatsSnapshot is a statistics collector's serialisable aggregate.
type StatsSnapshot = stats.Snapshot

// NewTracer builds a detached tracer; install it with
// System.SetListener, or use AttachTracer.
func NewTracer(opt TracerOptions) *Tracer { return obs.NewTracer(opt) }

// AttachTracer builds a tracer and installs it as the system's
// listener.
func AttachTracer(sys *System, opt TracerOptions) *Tracer { return obs.Attach(sys, opt) }

// WriteChromeTrace renders traced events as a Chrome trace_event JSON
// document (chrome://tracing, Perfetto): one track per bank, one per
// port.
func WriteChromeTrace(w io.Writer, events []TraceEvent, banks, bankBusy int) error {
	return obs.WriteChromeTrace(w, events, banks, bankBusy)
}

// WriteTraceCSV renders traced events as a CSV timeline.
func WriteTraceCSV(w io.Writer, events []TraceEvent) error {
	return obs.WriteCSV(w, events)
}

// BankStripChart renders traced events as a plain-text bank-occupancy
// strip chart.
func BankStripChart(events []TraceEvent, banks, bankBusy int) string {
	return obs.StripChart(events, banks, bankBusy)
}

// WriteMetricsSnapshot serialises a metrics snapshot as indented JSON.
func WriteMetricsSnapshot(w io.Writer, s MetricsSnapshot) error {
	return obs.WriteSnapshot(w, s)
}

// ReadMetricsSnapshot parses a snapshot written by
// WriteMetricsSnapshot.
func ReadMetricsSnapshot(r io.Reader) (MetricsSnapshot, error) {
	return obs.ReadSnapshot(r)
}

// NewMetricsRegistry returns an empty live-metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// --- Figures ------------------------------------------------------------

// Figure is one of the paper's executable worked examples.
type Figure = figures.Figure

// Figures returns executable reproductions of Figures 2–9.
func Figures() []Figure { return figures.All() }

// FigureByID returns one figure ("2" … "9", "8a", "8b").
func FigureByID(id string) (Figure, error) { return figures.ByID(id) }
