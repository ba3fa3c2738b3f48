package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/modmath"
	"ivm/internal/rat"
	"ivm/internal/stats"
	"ivm/internal/textplot"
)

// findCycleBudget is the per-simulation clock budget for steady-state
// detection, shared by the sequential and parallel paths.
const findCycleBudget = 1 << 22

// DefaultCacheSize is the engine's cyclic-state cache capacity (total
// entries across shards) when Options.CacheSize is zero.
const DefaultCacheSize = 1 << 16

// Options configures the parallel sweep engine.
type Options struct {
	// Workers is the number of worker goroutines sharding the grid;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// CacheSize bounds the cyclic-state memo cache in entries: 0 means
	// DefaultCacheSize, negative disables caching. The cache covers
	// every configuration family the spec layer produces — sectionless
	// pairs, triples and N-stream grids, section pairs, and so on —
	// keyed by the canonical form of the configuration vector under the
	// bank-renumbering isomorphisms (see docs/CACHING.md for the
	// derivations).
	CacheSize int
	// CollectStats attaches a stats.Collector to every worker's
	// simulator and merges them after each sweep (see Stats). Off by
	// default: per-event collection slows the hot loop.
	CollectStats bool
	// Timeline, when non-nil, records what each worker slot is doing
	// (work-item spans, cache hit/miss instants, canonicalisation and
	// simulation slices) for Chrome-trace export; nil (the default)
	// records nothing and costs the hot path nothing.
	Timeline *Timeline
	// Provenance, when non-nil, records which path resolved every
	// placement — analytic gate (with the theorem identifier), cache
	// hit (with the canonical key), or simulation (with the kernel,
	// cycle length and clocks) — for the attribution reports; nil (the
	// default) records nothing and costs the hot path nothing, exactly
	// like Timeline.
	Provenance *Provenance
	// ItemLatency, when non-nil, receives every completed work item's
	// wall latency in nanoseconds (obs.LatencyHist implements it), so
	// sweeps and the serving layer can report latency distributions and
	// quantiles, not just means; nil is off and free.
	ItemLatency LatencySink
	// CacheSink, when non-nil, receives one CacheRecord per simulated
	// canonical orbit, immediately after the result enters the in-RAM
	// cache, so a persistent store (internal/cachestore) can append it
	// to its log. Cache hits, analytic answers and seeded records are
	// not re-emitted, and nothing is emitted when caching is disabled
	// (CacheSize < 0). Implementations must be safe for concurrent use;
	// nil (the default) is off and free.
	CacheSink CacheSink
	// Analytic enables the theorem-driven classifier gate in the sweep
	// hot path: sectionless two-stream placements whose regime has a
	// start-independent closed form (Theorem 3 conflict-free, Theorems
	// 4+6/7 unique barrier) or that are provably disjoint (Theorem 2)
	// return their b_eff analytically, without simulating or touching
	// the cache; everything else simulates as before. Nil or pointing
	// at true enables the gate (the default); point at false to force
	// every placement through simulation (the differential tests and
	// the scalar baseline benchmarks do). Gated answers are exactly the
	// values simulation would produce — the goldens pin byte-identity.
	Analytic *bool
	// PackedKernel selects the memsys kernel the workers simulate on.
	// Nil or pointing at true selects the bit-packed bank-busy kernel
	// (memsys.KernelPacked, the default); point at false for the
	// scalar reference kernel, which stays the oracle the packed one is
	// differentially tested against. Both kernels produce identical
	// cyclic states, so results are byte-identical either way.
	PackedKernel *bool
}

// LatencySink receives per-work-item latencies. It is implemented by
// obs.LatencyHist; the indirection keeps internal/sweep free of an obs
// dependency (obs imports sweep). Implementations must be safe for
// concurrent use.
type LatencySink interface {
	// ObserveNS records one completed item's wall latency.
	ObserveNS(ns int64)
}

// analytic reports whether the classifier gate short-circuits provable
// placements.
func (o Options) analytic() bool {
	return o.Analytic == nil || *o.Analytic
}

// KernelOption parses a -kernel flag value into the Options.PackedKernel
// setting: "packed" selects the bit-packed bank-busy kernel, "scalar"
// the reference oracle loop. The sweeping CLIs share this parser.
func KernelOption(name string) (*bool, error) {
	switch name {
	case "packed":
		v := true
		return &v, nil
	case "scalar":
		v := false
		return &v, nil
	}
	return nil, fmt.Errorf("sweep: unknown kernel %q (want packed or scalar)", name)
}

// kernel returns the memsys kernel the workers simulate on.
func (o Options) kernel() memsys.Kernel {
	if o.PackedKernel == nil || *o.PackedKernel {
		return memsys.KernelPacked
	}
	return memsys.KernelScalar
}

// FamilyMetrics is the cache and fast-path traffic of one configuration
// family.
type FamilyMetrics struct {
	Hits     int64
	Misses   int64
	Analytic int64
}

// Metrics are the engine's cumulative counters. All values aggregate
// over every sweep the engine has run; Families splits the cache
// totals by configuration family (ConfigSpec.Family), holding only
// families that saw traffic. The JSON encoding is stable across the
// ConfigSpec refactor: the historical families keep their flat
// pair_cache_hits / triple_cache_misses / … field names (emitted even
// when zero), and any other family appears as <family>_cache_hits /
// <family>_cache_misses.
type Metrics struct {
	CacheHits   int64 // starts answered from the memo cache (all families)
	CacheMisses int64 // starts that had to be simulated (all families)
	// AnalyticHits counts starts answered by the theorem-driven
	// classifier gate (Options.Analytic) without simulating or touching
	// the cache; encoded as analytic_hits / <family>_analytic_hits.
	AnalyticHits int64
	// Families is the per-family cache traffic, keyed by
	// ConfigSpec.Family ("pair", "triple", "section", "stream4", …).
	Families       map[string]FamilyMetrics
	CacheEntries   int   // entries currently cached
	CyclesFound    int64 // cyclic steady states detected
	StepsSimulated int64 // clock periods stepped across all simulations
	PairsSwept     int64 // sweep units (pairs/triples/section pairs/specs) completed
	// PackedFallbacks counts specs that requested the packed kernel but
	// were compiled onto the scalar one because the packed grant loop
	// does not implement their priority rule
	// (memsys.PackedSupportsPriority). Structurally zero while every
	// known rule is packed-supported; the counter keeps any future
	// partial-coverage kernel honest. Encoded as packed_fallbacks.
	PackedFallbacks int64
}

// legacyFamilies are the families that predate the generic spec layer;
// their counters are always present in the JSON encoding, zero or not,
// so downstream consumers of BENCH_sweep.json keep their fields.
var legacyFamilies = []string{"pair", "triple", "section"}

// familyOrder lists the families of m in rendering order: the legacy
// three first (when present, or forced when includeLegacy), then the
// rest sorted by name.
func familyOrder(fams map[string]FamilyMetrics, includeLegacy bool) []string {
	var names []string
	for _, name := range legacyFamilies {
		if _, ok := fams[name]; ok || includeLegacy {
			names = append(names, name)
		}
	}
	var rest []string
	for name := range fams {
		legacy := false
		for _, l := range legacyFamilies {
			if name == l {
				legacy = true
				break
			}
		}
		if !legacy {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// MarshalJSON encodes the counters with the pre-refactor field layout
// (see the Metrics doc comment).
func (m Metrics) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	field := func(name string, v int64) {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", name, v)
	}
	field("cache_hits", m.CacheHits)
	field("cache_misses", m.CacheMisses)
	field("analytic_hits", m.AnalyticHits)
	for _, name := range familyOrder(m.Families, true) {
		f := m.Families[name]
		field(name+"_cache_hits", f.Hits)
		field(name+"_cache_misses", f.Misses)
		field(name+"_analytic_hits", f.Analytic)
	}
	field("cache_entries", int64(m.CacheEntries))
	field("cycles_found", m.CyclesFound)
	field("steps_simulated", m.StepsSimulated)
	field("pairs_swept", m.PairsSwept)
	field("packed_fallbacks", m.PackedFallbacks)
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON inverts MarshalJSON, rebuilding Families from the
// <family>_cache_hits/_misses fields (families without traffic are
// dropped, matching what Engine.Metrics reports).
func (m *Metrics) UnmarshalJSON(data []byte) error {
	var raw map[string]int64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*m = Metrics{
		CacheHits:       raw["cache_hits"],
		CacheMisses:     raw["cache_misses"],
		AnalyticHits:    raw["analytic_hits"],
		CacheEntries:    int(raw["cache_entries"]),
		CyclesFound:     raw["cycles_found"],
		StepsSimulated:  raw["steps_simulated"],
		PairsSwept:      raw["pairs_swept"],
		PackedFallbacks: raw["packed_fallbacks"],
	}
	for k, hits := range raw {
		if k == "cache_hits" || !strings.HasSuffix(k, "_cache_hits") {
			continue
		}
		name := strings.TrimSuffix(k, "_cache_hits")
		f := FamilyMetrics{Hits: hits, Misses: raw[name+"_cache_misses"], Analytic: raw[name+"_analytic_hits"]}
		if f.Hits+f.Misses+f.Analytic == 0 {
			continue
		}
		if m.Families == nil {
			m.Families = make(map[string]FamilyMetrics)
		}
		m.Families[name] = f
	}
	return nil
}

func hitRate(hits, misses int64) float64 {
	n := hits + misses
	if n == 0 {
		return 0
	}
	return float64(hits) / float64(n)
}

// HitRate returns the overall cache hit fraction, 0 when the cache was
// unused. Analytically answered starts never reach the cache and are
// excluded; see AnalyticHitRate.
func (m Metrics) HitRate() float64 { return hitRate(m.CacheHits, m.CacheMisses) }

// AnalyticHitRate returns the fraction of starts answered by the
// classifier gate out of all starts resolved, 0 when nothing ran.
func (m Metrics) AnalyticHitRate() float64 {
	return hitRate(m.AnalyticHits, m.CacheHits+m.CacheMisses)
}

// Family returns the cache traffic of one configuration family (the
// zero FamilyMetrics when it saw none).
func (m Metrics) Family(name string) FamilyMetrics { return m.Families[name] }

// FamilyHitRate returns the cache hit fraction of one configuration
// family, 0 when it saw no traffic.
func (m Metrics) FamilyHitRate(name string) float64 {
	f := m.Families[name]
	return hitRate(f.Hits, f.Misses)
}

// Table renders the counters as an aligned text table. Per-family
// cache rows appear only for families that saw traffic, legacy
// families first.
func (m Metrics) Table() string {
	t := &textplot.Table{Header: []string{"engine counter", "value"}}
	t.Add("sweep units", m.PairsSwept)
	t.Add("cycles found", m.CyclesFound)
	t.Add("steps simulated", m.StepsSimulated)
	t.Add("cache hits", m.CacheHits)
	t.Add("cache misses", m.CacheMisses)
	t.Add("analytic hits", m.AnalyticHits)
	t.Add("cache entries", m.CacheEntries)
	t.Add("cache hit rate", fmt.Sprintf("%.1f%%", m.HitRate()*100))
	t.Add("analytic hit rate", fmt.Sprintf("%.1f%%", m.AnalyticHitRate()*100))
	if m.PackedFallbacks > 0 {
		t.Add("packed fallbacks", m.PackedFallbacks)
	}
	for _, name := range familyOrder(m.Families, false) {
		f := m.Families[name]
		if f.Hits+f.Misses+f.Analytic == 0 {
			continue
		}
		t.Add(name+" hit rate",
			fmt.Sprintf("%.1f%% (%d/%d)", hitRate(f.Hits, f.Misses)*100, f.Hits, f.Hits+f.Misses))
	}
	return t.String()
}

// Engine is the parallel sweep harness: a bounded worker pool over
// spec-driven sweeps with a sharded memoization cache of cyclic steady
// states. Results are always returned in the sequential sweep order,
// so output is byte-identical to the cold package functions Grid,
// SectionGrid, TripleGrid, NStreamGrid and SpecGrid regardless of
// worker count or cache state.
//
// Every sweep — pair, triple, section or generic N-stream — routes
// through one path, sweepSpecs: one work item per spec, the spec
// compiled against the worker (compiledSpec), each placement's
// configuration vector (d_1..d_N, b_1..b_N) canonicalised by the
// spec's modmath pipeline (translation orbits composed with the
// unit-group scaling action), and the canonical representative keying
// the cache. On a miss the CANONICAL
// representative is simulated, so the cached value is exactly what any
// placement of the orbit would produce; docs/CACHING.md derives the
// isomorphisms. An Engine is safe for concurrent use by multiple
// goroutines, though each sweep call already saturates its own pool.
type Engine struct {
	opt   Options
	cache *bwCache

	famMu sync.Mutex
	fams  map[string]*familyCounter

	// pairs counts completed work items (Metrics.PairsSwept), planned
	// the items every sweep and batch announced, and startNS is the
	// wall clock of the first announcement; WorkItems reads all three.
	cycles, steps, pairs, planned atomic.Int64
	packedFallbacks, startNS      atomic.Int64

	// Observability counters (see Snapshot): wall time spent inside
	// sweep calls, wall time inside steady-state detection, and the
	// cumulative per-pool-slot work totals.
	wallNS, cycleNS atomic.Int64

	mu           sync.Mutex
	stats        *stats.Collector
	workerTotals []WorkerStat
}

// familyCounter is one family's hit/miss/analytic counters; workers
// cache the pointer per compiled spec so the hot path is two atomic
// adds away from the map.
type familyCounter struct {
	hits, misses, analytic atomic.Int64
}

// NewEngine builds an engine; the zero Options select GOMAXPROCS
// workers and the default cache size.
func NewEngine(opt Options) *Engine {
	e := &Engine{opt: opt}
	if opt.CacheSize >= 0 {
		size := opt.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		e.cache = newBWCache(size)
	}
	return e
}

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opt }

// familyCounter returns (creating on first use) the counter of one
// configuration family.
func (e *Engine) familyCounter(name string) *familyCounter {
	e.famMu.Lock()
	defer e.famMu.Unlock()
	if e.fams == nil {
		e.fams = make(map[string]*familyCounter)
	}
	c := e.fams[name]
	if c == nil {
		c = &familyCounter{}
		e.fams[name] = c
	}
	return c
}

// Metrics snapshots the engine's cumulative counters.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		CyclesFound:     e.cycles.Load(),
		StepsSimulated:  e.steps.Load(),
		PairsSwept:      e.pairs.Load(),
		PackedFallbacks: e.packedFallbacks.Load(),
	}
	e.famMu.Lock()
	for name, c := range e.fams {
		h, mi, an := c.hits.Load(), c.misses.Load(), c.analytic.Load()
		if h+mi+an == 0 {
			continue
		}
		if m.Families == nil {
			m.Families = make(map[string]FamilyMetrics)
		}
		m.Families[name] = FamilyMetrics{Hits: h, Misses: mi, Analytic: an}
		m.CacheHits += h
		m.CacheMisses += mi
		m.AnalyticHits += an
	}
	e.famMu.Unlock()
	if e.cache != nil {
		m.CacheEntries = e.cache.Len()
	}
	return m
}

// CacheEvicted counts the cache entries discarded so far by wholesale
// shard drops (zero when caching is disabled). A nonzero count means a
// shard overflowed its share of Options.CacheSize. It is kept out of
// Metrics, whose JSON layout downstream readers pin.
func (e *Engine) CacheEvicted() int64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.evicted.Load()
}

// WorkItems reports the engine's work-item progress for a live
// reporter (obs.Progress): the items every sweep and batch planned so
// far, the items completed (Metrics.PairsSwept), and the wall clock at
// which the first was planned (the zero Time before any).
func (e *Engine) WorkItems() (planned, done int64, since time.Time) {
	if ns := e.startNS.Load(); ns != 0 {
		since = time.Unix(0, ns)
	}
	return e.planned.Load(), e.pairs.Load(), since
}

// Stats returns the merged per-bank statistics of the most recent
// sweep call, or nil unless Options.CollectStats is set. Cache hits
// skip simulation, so the collector covers only the states that were
// actually simulated (the canonical orbit representatives).
func (e *Engine) Stats() *stats.Collector {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *Engine) workers() int {
	if e.opt.Workers > 0 {
		return e.opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// run shards n independent work items over the pool. Each worker owns
// a private simulator (reused across items via memsys.Reset), so f
// must write results only into its own item's slot — that indexing is
// what keeps the output deterministic.
func (e *Engine) run(n int, f func(w *worker, i int)) {
	if e.opt.CollectStats {
		e.mu.Lock()
		e.stats = nil
		e.mu.Unlock()
	}
	if n == 0 {
		return
	}
	start := time.Now()
	defer func() { e.wallNS.Add(time.Since(start).Nanoseconds()) }()
	e.startNS.CompareAndSwap(0, start.UnixNano())
	e.planned.Add(int64(n))
	tl := e.opt.Timeline
	lat := e.opt.ItemLatency
	work := func(w *worker, i int) {
		t0 := time.Now()
		ts := tl.Start()
		f(w, i)
		itemNS := time.Since(t0).Nanoseconds()
		w.busyNS += itemNS
		w.items++
		e.pairs.Add(1)
		tl.Slice(w.id, TimelineItem, ts, i, "")
		if lat != nil {
			lat.ObserveNS(itemNS)
		}
	}
	workers := e.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		w := &worker{e: e}
		for i := 0; i < n; i++ {
			work(w, i)
		}
		w.finish()
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &worker{e: e, id: id}
			defer w.finish()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(w, i)
			}
		}(k)
	}
	wg.Wait()
}

// sweepSpecs is the engine half of the sweep route: one work item per
// spec, folded by fold over the placements it resolves through the
// worker's cached answer route (gate, canonical-key cache, simulation).
// coldSpecs runs the same folds on the cold oracle.
func sweepSpecs[R any](e *Engine, specs []ConfigSpec, fold func(ConfigSpec, func(b []int) rat.Rational) R) []R {
	out := make([]R, len(specs))
	e.run(len(specs), func(w *worker, i int) {
		cs := w.compile(specs[i])
		out[i] = fold(specs[i], func(b []int) rat.Rational { return w.resolve(cs, b, nil).BW })
	})
	return out
}

// Grid is the parallel, cached equivalent of Grid: same pairs, same
// order, same values.
func (e *Engine) Grid(m, nc int) []PairResult { return sweepSpecs(e, GridSpecs(m, 0, nc), pairFold) }

// SectionGrid is the parallel, cached equivalent of SectionGrid.
// Placements are canonicalised under the section-respecting pipeline
// before the cache lookup.
func (e *Engine) SectionGrid(m, s, nc int) []SectionPairResult {
	return sweepSpecs(e, GridSpecs(m, s, nc), sectionFold)
}

// TripleGrid is the parallel, cached equivalent of TripleGrid: every
// distance triple over all m^2 relative placements.
func (e *Engine) TripleGrid(m, nc int) []TripleSweepResult {
	return tripleResults(sweepSpecs(e, tripleSpecs(m, nc), specFold))
}

// NStreamGrid is the parallel, cached equivalent of NStreamGrid: every
// nondecreasing non-self-conflicting distance N-tuple over all
// m^(N-1) relative placements.
func (e *Engine) NStreamGrid(m, nc, n int) []SpecResult {
	return sweepSpecs(e, nStreamSpecs(m, nc, n), specFold)
}

// SpecGrid is the parallel, cached equivalent of SpecGrid: one work
// item per spec, results in input order. It is the generic grid for
// the triple census (TripleCensusSpecs) and for policy sweeps:
// non-default (priority, mapping) specs do not fit the
// theorem-comparing Grid/SectionGrid result shapes (those embed
// fixed-priority analysis), but their capacity bounds are
// priority-independent, so SpecResult is exact for any policy.
func (e *Engine) SpecGrid(specs []ConfigSpec) []SpecResult { return sweepSpecs(e, specs, specFold) }

// --- Workers ------------------------------------------------------------

// worker is the per-goroutine state of one pool member: a reusable
// simulator, its collector, and the memoised canonicalisation pipeline
// of the current (modulus, sections) pair.
type worker struct {
	e   *Engine
	id  int
	sys *memsys.System
	cfg memsys.Config
	col *stats.Collector

	// Per-slot work totals, folded into the engine by finish().
	items  int64
	steps  int64
	busyNS int64

	// Memoised canonicalisation pipeline (see pipelineFor).
	pipe                     modmath.Pipeline
	pipeM, pipeStep, pipeFix int
}

// system returns the worker's simulator for cfg on kernel kern, reset
// and ready for ports — reusing allocations whenever the configuration
// repeats. The kernel is (re)applied after Reset because it is now a
// per-spec choice (compile may fall a spec back to scalar), and
// SetKernel is legal there: every bank is idle and the call is a no-op
// when the kernel is unchanged.
func (w *worker) system(cfg memsys.Config, kern memsys.Kernel) *memsys.System {
	if w.sys != nil && w.cfg == cfg {
		w.sys.Reset()
		w.sys.SetKernel(kern)
		return w.sys
	}
	w.flushStats()
	w.sys = memsys.New(cfg)
	w.sys.SetKernel(kern)
	w.cfg = cfg
	if w.e.opt.CollectStats {
		w.col = stats.Attach(w.sys)
	}
	return w.sys
}

// finish folds the worker's collector and work totals into the engine.
func (w *worker) finish() {
	w.flushStats()
	e := w.e
	e.mu.Lock()
	for len(e.workerTotals) <= w.id {
		e.workerTotals = append(e.workerTotals, WorkerStat{Worker: len(e.workerTotals)})
	}
	t := &e.workerTotals[w.id]
	t.Items += w.items
	t.Steps += w.steps
	t.BusyNS += w.busyNS
	e.mu.Unlock()
	w.items, w.steps, w.busyNS = 0, 0, 0
}

func (w *worker) flushStats() {
	if w.col == nil {
		return
	}
	e := w.e
	e.mu.Lock()
	if e.stats == nil {
		e.stats = w.col
	} else {
		e.stats.Merge(w.col)
	}
	e.mu.Unlock()
	w.col = nil
}

// pipelineFor returns the memoised canonicalisation pipeline of an
// (m, s) memory: translation normalisation by multiples of the section
// count (every translation when sectionless), composed with scaling
// minimisation over the full unit group. On a sectioned memory a unit
// permutes the symmetric sections, so the full group stays sound — the
// zero-mismatch campaign recorded in docs/CACHING.md §5.
//
// Consecutive mapping gets its own, narrower group: translations by
// multiples of the section width g = m/s (which shift whole section
// blocks onto each other, cyclically permuting the sections) and NO
// unit scaling — a unit u ≠ 1 maps the consecutive block {0..g-1}
// onto a stride-u set that straddles section boundaries, so even the
// u ≡ 1 (mod s) subgroup is unsound here (docs/CACHING.md derives the
// counterexample; the consecutive differential test pins soundness of
// what ships).
//
// The priority rule does NOT enter: every arbitration rule decides
// winners from (port ID, CPU, clock) alone and consults banks only
// through equality and section-membership tests, both of which an
// affine renumbering preserves (the bank-blind arbitration lemma,
// docs/CACHING.md). The pipeline therefore depends only on the
// mapping; the policy differential campaign (TestDifferentialPolicies,
// ivmablate -study policies) is the empirical gate on that argument.
func (w *worker) pipelineFor(m, s int, mapping memsys.SectionMapping) modmath.Pipeline {
	step, fix := 1, 1
	if s > 1 {
		step = s
	}
	if mapping == memsys.ConsecutiveSections {
		step = m / s
		fix = m // UnitsFixing(m, m) = {1}: no scaling
	}
	if w.pipe == nil || w.pipeM != m || w.pipeStep != step || w.pipeFix != fix {
		w.pipe = modmath.NewAffinePipeline(m, step, modmath.UnitsFixing(m, fix))
		w.pipeM, w.pipeStep, w.pipeFix = m, step, fix
	}
	return w.pipe
}

// compiledSpec binds one ConfigSpec to a worker for the duration of a
// work item: the derived family and counter, the canonicalisation
// pipeline, the simulator configuration, and the scratch vectors the
// hot loop reuses.
type compiledSpec struct {
	spec    ConfigSpec
	family  string
	cpus    string
	cpuList []int
	counter *familyCounter
	canon   modmath.Pipeline
	cfg     memsys.Config
	// kernel is the inner-loop implementation this spec simulates on:
	// the engine-wide request, demoted to scalar (with the fallback
	// counted) when the packed kernel does not cover the spec's
	// priority rule.
	kernel memsys.Kernel

	// gate is the analytic fast path for this spec, or nil when the
	// spec is outside the theorems' model (sectioned, not two streams)
	// or the classifier has no start-independent closed form for it.
	// gateTheorem is the gate's theorem identifier for provenance
	// records, compiled once beside it.
	gate        *core.PairGate
	gateTheorem string

	// vec is the (d_1..d_N, b_1..b_N) canonicalisation scratch; b holds
	// the spec's own starts, the placement ResolveBatch answers.
	vec []int
	b   []int
}

// compile validates and binds spec to the worker. The returned value
// shares the worker's pipeline memo, so it is only valid until the
// worker compiles a spec with a different (m, s).
func (w *worker) compile(spec ConfigSpec) *compiledSpec {
	if err := spec.Validate(); err != nil {
		panic("sweep: " + err.Error())
	}
	n := len(spec.Streams)
	cpus := make([]int, n)
	for i, st := range spec.Streams {
		cpus[i] = st.CPU
	}
	cs := &compiledSpec{
		spec:    spec,
		family:  spec.Family(),
		cpus:    packInts(cpus),
		cpuList: cpus,
		canon:   w.pipelineFor(spec.M, spec.S, spec.Mapping),
		cfg:     specConfig(spec),
		kernel:  w.e.opt.kernel(),
		vec:     make([]int, 2*n),
		b:       make([]int, n),
	}
	if cs.kernel == memsys.KernelPacked && !memsys.PackedSupportsPriority(spec.Priority) {
		cs.kernel = memsys.KernelScalar
		w.e.packedFallbacks.Add(1)
	}
	cs.counter = w.e.familyCounter(cs.family)
	for i, st := range spec.Streams {
		cs.b[i] = st.B
	}
	// The classifier's model is a sectionless two-stream memory with
	// stream 1 holding the fixed priority — exactly what specConfig
	// builds for such specs, so the gate is sound for any CPU layout
	// (with s = m every path conflict is already a bank-level event).
	// NewPairGateUnder declines every other priority rule: those specs
	// always simulate, whatever Options.Analytic says.
	if w.e.opt.analytic() && spec.S == 0 && n == 2 {
		if g := core.NewPairGateUnder(spec.M, spec.NC, spec.Streams[0].D, spec.Streams[1].D, spec.Priority); g.Active() {
			cs.gate = &g
			cs.gateTheorem = g.TheoremID()
		}
	}
	return cs
}

// load fills cs.vec with the configuration vector (d_1..d_N, b_1..b_N)
// of placement b.
func (cs *compiledSpec) load(b []int) {
	n := len(cs.spec.Streams)
	for i, st := range cs.spec.Streams {
		cs.vec[i] = st.D
	}
	copy(cs.vec[n:], b)
}

// key canonicalises the placement b of the compiled spec and returns
// its cache key, leaving the canonical configuration vector in cs.vec.
// The canonical representative is the lexicographically smallest
// member of the placement's orbit under the spec's pipeline, so
// isomorphic placements collide in the cache by construction.
func (cs *compiledSpec) key(b []int) cacheKey {
	cs.load(b)
	cs.canon.Canonicalize(cs.vec, len(cs.spec.Streams))
	return cacheKey{
		family: cs.family,
		m:      cs.spec.M,
		s:      cs.spec.S,
		nc:     cs.spec.NC,
		cpus:   cs.cpus,
		vec:    packInts(cs.vec),
	}
}

// resolve is the engine's single answer route, the paper's three
// answers in order: the analytic gate (Theorems 2/3, Eq. 29), the
// canonical-key cache (an isomorphic placement already solved), then
// simulation of the cyclic steady state. On a miss the CANONICAL
// representative is simulated — not the requested placement — so the
// cached value is exactly what any placement of the orbit would
// produce; with caching disabled the placement itself is simulated.
// Every step is timed by one phaseTimer and every answer is accounted
// by one record call. sp is the request's span sink, nil when
// detached. Canonical, when set, aliases the scratch cs.vec, so
// ResolveBatchCtx copies it (and sets Family).
func (w *worker) resolve(cs *compiledSpec, b []int, sp SpanSink) Resolution {
	if cs.gate != nil {
		t := w.begin(sp, noSlice, SpanGate)
		v, ok := cs.gate.BandwidthAt(b[0], b[1])
		t.end(cs.family)
		if ok {
			return w.record(cs, Resolution{BW: v, Path: PathAnalytic, Theorem: cs.gateTheorem}, cacheKey{}, 0)
		}
	}
	var key cacheKey
	if w.e.cache == nil {
		cs.load(b)
	} else {
		t := w.begin(sp, TimelineCanon, SpanCanon)
		key = cs.key(b)
		t.end(cs.family)
		t = w.begin(sp, noSlice, SpanCacheProbe)
		bw, ok := w.e.cache.get(key)
		t.end(cs.family)
		if ok {
			return w.record(cs, Resolution{BW: bw, Path: PathCache}, key, 0)
		}
	}
	t := w.begin(sp, TimelineSimulate, SpanSimulate)
	r := w.simulate(cs, cs.vec)
	t.end(cs.family)
	return w.record(cs, r, key, t.tl)
}

// record is the answer route's one recording point: it accounts one
// resolved placement in its family counter, the Timeline and the
// Provenance and, on a cached miss, stores the answer in the cache and
// hands it to the CacheSink. key is the placement's cache key (zero on
// analytic answers and when caching is disabled). simNS is the Timeline
// stamp at which a simulation began: the cache-miss instant is stamped
// there, at the miss decision, not when the simulation has finished.
func (w *worker) record(cs *compiledSpec, r Resolution, key cacheKey, simNS int64) Resolution {
	e := w.e
	tl, prov := e.opt.Timeline, e.opt.Provenance
	switch r.Path {
	case PathAnalytic:
		cs.counter.analytic.Add(1)
		tl.Instant(w.id, TimelineAnalytic, -1, cs.family)
		prov.Analytic(cs.family, r.Theorem)
		return r
	case PathCache:
		cs.counter.hits.Add(1)
		tl.Instant(w.id, TimelineCacheHit, -1, cs.family)
		prov.CacheHit(cs.family, cs.spec.M, cs.spec.S, cs.spec.NC, cs.vec)
		r.Canonical = cs.vec
		return r
	}
	prov.Simulated(cs.family, cs.spec.M, cs.spec.S, cs.spec.NC, cs.vec, r.Path == PathSimPacked, r.CycleLength, r.Clocks)
	if e.cache == nil {
		return r
	}
	r.Canonical = cs.vec
	cs.counter.misses.Add(1)
	tl.instantAt(w.id, TimelineCacheMiss, simNS, -1, cs.family)
	e.cache.put(key, r.BW)
	if sink := e.opt.CacheSink; sink != nil {
		sink.Put(CacheRecord{
			Family: cs.family,
			M:      cs.spec.M, S: cs.spec.S, NC: cs.spec.NC,
			CPUs: append([]int(nil), cs.cpuList...),
			Vec:  append([]int(nil), cs.vec...),
			BW:   r.BW,
		})
	}
	return r
}

// noSlice marks a route phase the Timeline does not slice: the gate
// and the cache probe appear only as spans.
const noSlice TimelineKind = -1

// phaseTimer times one step of the answer route into the Timeline (a
// slice of kind, unless noSlice) and the request's SpanSink (a span
// named span) together. Detached — nil Timeline and nil sink — it
// reads no clock and allocates nothing.
type phaseTimer struct {
	w      *worker
	sp     SpanSink
	kind   TimelineKind
	span   string
	tl, ss int64
}

// begin opens a phase on the worker; end closes it.
func (w *worker) begin(sp SpanSink, kind TimelineKind, span string) phaseTimer {
	t := phaseTimer{w: w, sp: sp, kind: kind, span: span}
	if kind != noSlice {
		t.tl = w.e.opt.Timeline.Start()
	}
	if sp != nil {
		t.ss = sp.Start()
	}
	return t
}

func (t phaseTimer) end(family string) {
	if t.kind != noSlice {
		t.w.e.opt.Timeline.Slice(t.w.id, t.kind, t.tl, -1, family)
	}
	if t.sp != nil {
		t.sp.Span(t.span, t.ss)
	}
}

// simulate runs the compiled spec at configuration vector v on the
// worker's reusable simulator and detects its steady state, accounting
// the detection in the engine counters; the answer carries the kernel's
// path and the cycle's cost.
func (w *worker) simulate(cs *compiledSpec, v []int) Resolution {
	sys := w.system(cs.cfg, cs.kernel)
	addSpecStreams(sys, cs.spec, v)
	tl := w.e.opt.Timeline
	t0 := time.Now()
	ts := tl.Start()
	c, err := sys.FindCycle(findCycleBudget)
	w.e.cycleNS.Add(time.Since(t0).Nanoseconds())
	tl.Slice(w.id, TimelineFindCycle, ts, -1, "")
	if err != nil {
		panic(fmt.Sprintf("sweep: %s: %v", describeSpec(cs.spec, v), err))
	}
	clocks := c.Lead + c.Length
	w.e.cycles.Add(1)
	w.e.steps.Add(clocks)
	w.steps += clocks
	r := Resolution{BW: c.EffectiveBandwidth(), Path: PathSimScalar, CycleLength: c.Length, Clocks: clocks}
	if cs.kernel == memsys.KernelPacked {
		r.Path = PathSimPacked
	}
	return r
}
