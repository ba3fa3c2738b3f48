package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/modmath"
	"ivm/internal/obs/latency"
	"ivm/internal/rat"
	"ivm/internal/textplot"
)

// FindCycleBudget is the per-simulation clock budget for steady-state
// detection, shared by the engine's workers and the cold oracle
// (simulateSpecVec).
const FindCycleBudget = 1 << 22

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
	// Timeline, when non-nil, records what each worker slot is doing
	// (work-item spans, cache hit/miss instants, canonicalisation and
	// simulation slices) for Chrome-trace export; nil (the default)
	// records nothing and costs the hot path nothing.
	Timeline *Timeline
	// Provenance, when non-nil, keeps a row per canonical orbit: the
	// placements of the orbit answered from the cache (or copied by a
	// spec class) and simulated, with the cycle length and clocks of
	// the simulations. The answer tally counts paths and theorems
	// whether or not it is set; Snapshot joins the two for the
	// attribution reports. Like every observer it never changes the
	// route a placement takes; nil (the default) records nothing and
	// costs the hot path nothing, exactly like Timeline.
	Provenance *Provenance
	// CacheSink, when non-nil, receives one CacheRecord per simulation,
	// under the simulated orbit's canonical vector, so a persistent
	// store (internal/cachestore) can append it to its log. The lead of
	// a spec class (see Engine.specGrid) canonicalises its placements
	// only for its observers and can emit one orbit more than once;
	// a store drops the repeats when it opens. Cache hits, class
	// copies, analytic answers and seeded records are not emitted, and
	// nothing is emitted when caching is disabled (CacheSize < 0).
	// Implementations must be safe for concurrent use; nil (the
	// default) is off and free.
	CacheSink CacheSink
	// Analytic enables the theorem-driven classifier gate in the sweep
	// hot path: sectionless two-stream placements whose regime has a
	// start-independent closed form (Theorem 3 conflict-free, Theorems
	// 4+6/7 unique barrier) or that are provably disjoint (Theorem 2)
	// return their b_eff analytically, without simulating or touching
	// the cache; everything else simulates as before. Nil or pointing
	// at true enables the gate (the default); point at false to force
	// every placement through simulation. Gated answers are exactly the
	// values simulation would produce — the goldens pin byte-identity.
	//
	// No CLI or server sets Analytic or PackedKernel: both exist to
	// select the reference route for the differential tests, the root
	// benchmark baselines and ivmbench's oracle.
	Analytic *bool
	// PackedKernel selects the memsys kernel the workers' FindCycle
	// searches on. Nil or pointing at true selects the bit-packed
	// search (memsys.KernelPacked, the default); point at false for the
	// scalar reference search, which stays the oracle the packed one is
	// differentially tested against. Both find identical cyclic states,
	// so results are byte-identical either way.
	PackedKernel *bool
}

// analytic reports whether the classifier gate short-circuits provable
// placements.
func (o Options) analytic() bool {
	return o.Analytic == nil || *o.Analytic
}

// kernel returns the memsys kernel the workers search on.
func (o Options) kernel() memsys.Kernel {
	if o.PackedKernel == nil || *o.PackedKernel {
		return memsys.KernelPacked
	}
	return memsys.KernelScalar
}

// FamilyMetrics is the cache and fast-path traffic of one configuration
// family, derived from the engine's answer tally.
type FamilyMetrics struct {
	Hits     int64 `json:"cache_hits"`
	Misses   int64 `json:"cache_misses"`
	Analytic int64 `json:"analytic_hits"`
}

// Metrics are the engine's cumulative counters. All values aggregate
// over every sweep the engine has run; Families splits the cache
// totals by configuration family (ConfigSpec.Family), holding only
// families that saw traffic. The placement counts (hits, misses,
// analytic answers, cycles and steps) are all read from the answer
// tally (see Tally); misses count simulations only while caching is
// enabled, so HitRate stays a cache hit rate.
type Metrics struct {
	CacheHits   int64 `json:"cache_hits"`   // starts answered from the memo cache (all families)
	CacheMisses int64 `json:"cache_misses"` // starts that had to be simulated (all families)
	// AnalyticHits counts starts answered by the theorem-driven
	// classifier gate (Options.Analytic) without simulating or touching
	// the cache.
	AnalyticHits int64 `json:"analytic_hits"`
	// Families is the per-family cache traffic, keyed by
	// ConfigSpec.Family ("pair", "triple", "section", "stream4", …).
	Families       map[string]FamilyMetrics `json:"families,omitempty"`
	CacheEntries   int                      `json:"cache_entries"`   // entries currently cached
	CyclesFound    int64                    `json:"cycles_found"`    // cyclic steady states detected
	StepsSimulated int64                    `json:"steps_simulated"` // clock periods stepped across all simulations
	PairsSwept     int64                    `json:"pairs_swept"`     // sweep units (pairs/triples/section pairs/specs) completed
}

// sortedKeys lists a family-keyed map's names in sorted order, the
// order every per-family table renders in.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
// Every start not answered analytically was a cache hit or a
// simulation; CyclesFound counts the simulations whether or not the
// cache is on (CacheMisses does only while it is).
func (m Metrics) AnalyticHitRate() float64 {
	return hitRate(m.AnalyticHits, m.CacheHits+m.CyclesFound)
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
// cache rows appear only for families that saw traffic, sorted by
// name.
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
	for _, name := range sortedKeys(m.Families) {
		f := m.Families[name]
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
// through one path, sweepSpecs: one work item per spec (per class of
// unit-isomorphic specs in the capacity-bound grids, whose leads
// simulate without the cache, see specGrid),
// the spec compiled against the worker (compiledSpec), each placement's
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

	// famMu guards fams, the answer tally: one familyCounter per
	// configuration family, the engine's only count of resolved
	// placements (see Tally).
	famMu sync.Mutex
	fams  map[string]*familyCounter

	// pairs counts completed work items (Metrics.PairsSwept), planned
	// the items every sweep and batch announced, and startNS is the
	// wall clock of the first announcement; WorkItems reads all three.
	pairs, planned, startNS atomic.Int64

	// Observability counters (see Snapshot): wall time spent inside
	// sweep calls, wall time inside steady-state detection, the
	// work-item latency distribution (see ItemLatency) and the
	// cumulative per-pool-slot work totals.
	wallNS, cycleNS atomic.Int64
	itemLatency     latency.Hist

	mu           sync.Mutex
	workerTotals []WorkerStat
}

// familyCounter is one family's answer tally: placements by answer
// path, analytic answers by theorem, and the clocks its simulations
// stepped. worker.record counts answers on the worker, and Engine.run
// adds them here once per work item (worker.flushTally); compile
// resolves the family and theorem counters once per spec, so counting
// an answer never touches the maps.
type familyCounter struct {
	paths    [numPaths]atomic.Int64
	clocks   atomic.Int64
	theorems map[string]*atomic.Int64 // guarded by Engine.famMu
}

// NewEngine builds an engine; the zero Options select GOMAXPROCS
// workers and the default cache size.
func NewEngine(opt Options) *Engine {
	e := &Engine{opt: opt, fams: make(map[string]*familyCounter)}
	if opt.CacheSize >= 0 {
		size := opt.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		e.cache = newBWCache(size)
	}
	return e
}

// tally returns (creating on first use) the counter of one
// configuration family and, unless theorem is empty, the counter of
// one of its analytic theorems.
func (e *Engine) tally(family, theorem string) (*familyCounter, *atomic.Int64) {
	e.famMu.Lock()
	defer e.famMu.Unlock()
	c := e.fams[family]
	if c == nil {
		c = &familyCounter{theorems: make(map[string]*atomic.Int64)}
		e.fams[family] = c
	}
	if theorem == "" {
		return c, nil
	}
	n := c.theorems[theorem]
	if n == nil {
		n = new(atomic.Int64)
		c.theorems[theorem] = n
	}
	return c, n
}

// Tally reads the answer tally, the engine's one count of resolved
// placements: per family with traffic, the placements each path
// answered, the analytic answers per theorem and the clocks simulated.
// The orbit fields stay zero; Snapshot joins them from the Provenance
// recorder. Workers add their answers once per work item, so the tally
// is exact whenever no item is in flight and otherwise lags by the
// items in flight. Metrics, the provenance view and ivmserved's
// answer-path counters are all read from here.
func (e *Engine) Tally() map[string]FamilyProvenance {
	e.famMu.Lock()
	defer e.famMu.Unlock()
	out := make(map[string]FamilyProvenance, len(e.fams))
	for name, c := range e.fams {
		f := FamilyProvenance{
			Analytic:  c.paths[PathAnalytic].Load(),
			CacheHits: c.paths[PathCache].Load(),
			SimScalar: c.paths[PathSimScalar].Load(),
			SimPacked: c.paths[PathSimPacked].Load(),
			SimClocks: c.clocks.Load(),
		}
		f.Resolved = f.Analytic + f.CacheHits + f.SimScalar + f.SimPacked
		if f.Resolved == 0 {
			continue
		}
		for id, n := range c.theorems {
			if v := n.Load(); v > 0 {
				if f.Theorems == nil {
					f.Theorems = make(map[string]int64)
				}
				f.Theorems[id] = v
			}
		}
		out[name] = f
	}
	return out
}

// Metrics snapshots the engine's cumulative counters.
func (e *Engine) Metrics() Metrics { return e.metrics(e.Tally()) }

// metrics derives the counters from one read of the tally.
func (e *Engine) metrics(tally map[string]FamilyProvenance) Metrics {
	m := Metrics{PairsSwept: e.pairs.Load()}
	if e.cache != nil {
		m.CacheEntries = e.cache.Len()
	}
	for name, f := range tally {
		sims := f.SimScalar + f.SimPacked
		m.CyclesFound += sims
		m.StepsSimulated += f.SimClocks
		fm := FamilyMetrics{Hits: f.CacheHits, Analytic: f.Analytic}
		if e.cache != nil {
			fm.Misses = sims
		}
		if fm.Hits+fm.Misses+fm.Analytic == 0 {
			continue
		}
		if m.Families == nil {
			m.Families = make(map[string]FamilyMetrics)
		}
		m.Families[name] = fm
		m.CacheHits += fm.Hits
		m.CacheMisses += fm.Misses
		m.AnalyticHits += fm.Analytic
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

// ItemLatency snapshots the wall latency distribution of every work
// item the engine has completed: the same per-item clock reads that
// fill the per-worker busy time, observed into a log2 histogram.
func (e *Engine) ItemLatency() latency.Snapshot { return e.itemLatency.Snapshot() }

func (e *Engine) workers() int {
	if e.opt.Workers > 0 {
		return e.opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// run shards n independent work items over the pool. Each worker owns
// private simulators (see worker.system), kept across its items and
// dropped when run returns, so f must write results only into its own
// item's slot — that indexing is what keeps the output deterministic.
func (e *Engine) run(n int, f func(w *worker, i int)) {
	if n == 0 {
		return
	}
	start := time.Now()
	defer func() { e.wallNS.Add(time.Since(start).Nanoseconds()) }()
	e.startNS.CompareAndSwap(0, start.UnixNano())
	e.planned.Add(int64(n))
	tl := e.opt.Timeline
	work := func(w *worker, i int) {
		t0 := time.Now()
		ts := tl.Start()
		f(w, i)
		itemNS := time.Since(t0).Nanoseconds()
		e.cycleNS.Add(w.cycleNS)
		w.cycleNS = 0
		w.flushTally()
		w.busyNS += itemNS
		w.items++
		e.pairs.Add(1)
		tl.Slice(w.id, TimelineItem, ts, i, "")
		e.itemLatency.ObserveNS(itemNS)
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
	return tripleResults(e.specGrid(tripleSpecs(m, nc)))
}

// NStreamGrid is the parallel, cached equivalent of NStreamGrid: every
// nondecreasing non-self-conflicting distance N-tuple over all
// m^(N-1) relative placements.
func (e *Engine) NStreamGrid(m, nc, n int) []SpecResult {
	return e.specGrid(nStreamSpecs(m, nc, n))
}

// SpecGrid is the parallel, cached equivalent of SpecGrid: one work
// item per spec, results in input order. It is the generic grid for
// the triple census (TripleCensusSpecs) and for policy sweeps:
// non-default (priority, mapping) specs do not fit the
// theorem-comparing Grid/SectionGrid result shapes (those embed
// fixed-priority analysis), but their capacity bounds are
// priority-independent, so SpecResult is exact for any policy.
func (e *Engine) SpecGrid(specs []ConfigSpec) []SpecResult { return e.specGrid(specs) }

// --- Workers ------------------------------------------------------------

// simSlots is how many simulators a worker keeps, one per memory
// configuration: a served batch of 4-stream specs on two CPUs mixes
// two configurations (every stream on CPU 0 needs one CPU, any other
// layout two), and the bound caps what one batch can make a worker
// hold.
const simSlots = 2

// simSlot is one of a worker's simulators and the configuration it
// was built for.
type simSlot struct {
	sys *memsys.System
	cfg memsys.Config
}

// worker is the per-goroutine state of one pool member: its
// simulators, the answer tally of the spec it is resolving and the
// memoised canonicalisation pipeline of the current (modulus,
// sections) pair.
type worker struct {
	e    *Engine
	id   int
	sims [simSlots]simSlot // most recently used first
	cyc  memsys.Cycle      // simulate's steady state, refilled by every search

	// Per-slot work totals, folded into the engine by finish().
	items  int64
	steps  int64
	busyNS int64

	// cycleNS is the item's steady-state detection time so far, which
	// run adds to the engine's counter once per item: one shared
	// atomic add per search would make the workers contend for its
	// cache line.
	cycleNS int64

	// tally is the answer tally not yet added to the family's counters,
	// which run folds in once per item for the same reason.
	tally pendingTally

	// Memoised canonicalisation pipeline (see pipelineFor).
	pipe                     modmath.Pipeline
	pipeM, pipeStep, pipeFix int
}

// system returns the worker's simulator for cfg on the engine's
// kernel, holding the ports of its last placement. The worker keeps
// simSlots simulators, one per configuration, for the life of its
// Engine.run call, so a batch alternating between configurations
// reuses each one's ports, recurrence table and packed state; past
// simSlots configurations the least recently used is rebuilt. Reset
// keeps the kernel, so it is set once, when the simulator is built.
func (w *worker) system(cfg memsys.Config) *memsys.System {
	i := 0
	for i < simSlots-1 && w.sims[i].cfg != cfg {
		i++
	}
	s := w.sims[i]
	if s.sys == nil || s.cfg != cfg { // a new configuration: rebuild the last slot
		s = simSlot{sys: memsys.New(cfg), cfg: cfg}
		s.sys.SetKernel(w.e.opt.kernel())
	}
	copy(w.sims[1:i+1], w.sims[:i])
	w.sims[0] = s
	return s.sys
}

// pendingTally is one family's answer tally as a worker counts it,
// added to the family's counters by flushTally.
type pendingTally struct {
	counter *familyCounter
	theorem *atomic.Int64
	paths   [numPaths]int64
	clocks  int64
}

// count adds one answer of cs to the worker's pending tally, first
// flushing the tally of another family or theorem.
func (w *worker) count(cs *compiledSpec, r Resolution) {
	t := &w.tally
	if t.counter != cs.counter || t.theorem != cs.theorem {
		w.flushTally()
		t.counter, t.theorem = cs.counter, cs.theorem
	}
	t.paths[r.Path]++
	t.clocks += r.Clocks
}

// flushTally adds the worker's pending answer tally to its family's
// counters and empties it. Analytic answers are the only ones the
// pending theorem counts, so its count is paths[PathAnalytic].
func (w *worker) flushTally() {
	t := &w.tally
	if t.counter == nil {
		return
	}
	for p, n := range t.paths {
		if n != 0 {
			t.counter.paths[p].Add(n)
		}
	}
	if t.clocks != 0 {
		t.counter.clocks.Add(t.clocks)
	}
	if n := t.paths[PathAnalytic]; n != 0 && t.theorem != nil {
		t.theorem.Add(n)
	}
	*t = pendingTally{}
}

// finish folds the worker's work totals into the engine.
func (w *worker) finish() {
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

// pairGate returns the analytic fast path for spec, or nil when the
// gate is off, the spec is outside the theorems' model (sectioned, not
// two streams) or the classifier has no start-independent closed form
// for it. The classifier's model is a sectionless two-stream memory
// with stream 1 holding the fixed priority — exactly what specConfig
// builds for such specs, so the gate is sound for any CPU layout (with
// s = m every path conflict is already a bank-level event).
// NewPairGateUnder declines every other priority rule: those specs
// always simulate, whatever Options.Analytic says.
func (e *Engine) pairGate(spec ConfigSpec) *core.PairGate {
	if !e.opt.analytic() || spec.S != 0 || len(spec.Streams) != 2 {
		return nil
	}
	g := core.NewPairGateUnder(spec.M, spec.NC, spec.Streams[0].D, spec.Streams[1].D, spec.Priority)
	if !g.Active() {
		return nil
	}
	return &g
}

// compiledSpec binds one ConfigSpec to a worker for the duration of a
// work item: the derived family and counter, the canonicalisation
// pipeline, the simulator configuration, and the scratch vectors the
// hot loop reuses.
type compiledSpec struct {
	spec    ConfigSpec
	family  string
	cpuList []int
	canon   modmath.Pipeline
	cfg     memsys.Config

	// cache is the orbit cache the spec's placements are answered from:
	// the engine's, or nil when caching is disabled and for the lead of
	// a spec class (see specGrid), whose placements resolve as given.
	cache *bwCache

	// gate is the analytic fast path for this spec, or nil when the
	// spec is outside the theorems' model (sectioned, not two streams)
	// or the classifier has no start-independent closed form for it.
	// gateTheorem is the gate's theorem identifier, compiled once
	// beside it.
	gate        *core.PairGate
	gateTheorem string

	// counter is the family's tally and theorem the gate theorem's
	// count (nil without a gate), resolved once per spec.
	counter *familyCounter
	theorem *atomic.Int64

	// vec is the (d_1..d_N, b_1..b_N) canonicalisation scratch and key
	// the cache key of its packed form, the spec's head built once; b
	// holds the spec's own starts, the placement ResolveBatch answers.
	vec []int
	key keyBuf
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
	pol := policyCode(spec.Mapping, spec.Priority)
	var cb, fb [familyBufLen]byte
	cpuBytes := appendPacked(cb[:0], cpus)
	family := appendFamily(fb[:0], spec.S, cpuBytes, pol)
	cs := &compiledSpec{
		spec:    spec,
		family:  string(family),
		cpuList: cpus,
		canon:   w.pipelineFor(spec.M, spec.S, spec.Mapping),
		cfg:     specConfig(spec),
		cache:   w.e.cache,
		vec:     make([]int, 2*n),
		b:       make([]int, n),
		gate:    w.e.pairGate(spec),
	}
	cs.key = newKeyBuf(family, pol, spec.M, spec.S, spec.NC, cpuBytes)
	for i, st := range spec.Streams {
		cs.b[i] = st.B
	}
	if cs.gate != nil {
		cs.gateTheorem = cs.gate.TheoremID()
	}
	cs.counter, cs.theorem = w.e.tally(cs.family, cs.gateTheorem)
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

// pack canonicalises the placement b of the compiled spec into cs.vec
// and packs the canonical vector into cs.key, the key the cache probe
// looks up and a miss puts. The canonical representative is the
// lexicographically smallest member of the placement's orbit under the
// spec's pipeline, so isomorphic placements collide in the cache by
// construction.
func (cs *compiledSpec) pack(b []int) {
	cs.load(b)
	cs.canon.Canonicalize(cs.vec, len(cs.spec.Streams))
	cs.key.setVec(cs.vec)
}

// resolve is the engine's single answer route, the paper's three
// answers in order: the analytic gate (Theorems 2/3, Eq. 29), the
// canonical-key cache (an isomorphic placement already solved), then
// simulation of the cyclic steady state. On a miss the CANONICAL
// representative is simulated — not the requested placement — so the
// cached value is exactly what any placement of the orbit would
// produce; without a cache (caching disabled, or a class lead in
// specGrid) the placement itself is simulated, and record keys it only
// for an observer.
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
			return w.record(cs, Resolution{BW: v, Path: PathAnalytic, Theorem: cs.gateTheorem}, 0)
		}
	}
	if cs.cache == nil {
		cs.load(b)
	} else {
		t := w.begin(sp, TimelineCanon, SpanCanon)
		cs.pack(b)
		t.end(cs.family)
		t = w.begin(sp, noSlice, SpanCacheProbe)
		bw, ok := cs.cache.get(&cs.key)
		t.end(cs.family)
		if ok {
			return w.record(cs, Resolution{BW: bw, Path: PathCache}, 0)
		}
	}
	t := w.begin(sp, TimelineSimulate, SpanSimulate)
	r := w.simulate(cs, cs.vec)
	t.end(cs.family)
	return w.record(cs, r, t.tl)
}

// record is the answer route's one recording point: it counts one
// resolved placement by path (with its theorem when analytic, its
// clocks when simulated) in the worker's pending tally, marks it on
// the Timeline, adds it to its orbit's Provenance row when it was
// canonicalised or simulated and, on a cached miss, stores the answer
// in the cache, under the key of the vector cs.pack packed, and hands
// it to the CacheSink. A placement simulated without a cache probe (a
// class lead, or caching disabled) has no key yet: only when an
// observer will read one — a Provenance recorder, or a CacheSink while
// caching is on — is its vector canonicalised and packed, once, for
// both. A class lead's simulation is a miss of the engine's cache that
// puts nothing. simNS is the Timeline stamp at which a simulation
// began: the cache-miss instant is stamped there, at the miss
// decision, not when the simulation has finished.
func (w *worker) record(cs *compiledSpec, r Resolution, simNS int64) Resolution {
	e := w.e
	tl := e.opt.Timeline
	w.count(cs, r)
	switch r.Path {
	case PathAnalytic:
		tl.Instant(w.id, TimelineAnalytic, -1, cs.family)
		return r
	case PathCache:
		tl.Instant(w.id, TimelineCacheHit, -1, cs.family)
		e.opt.Provenance.observe(cs, r)
		r.Canonical = cs.vec
		return r
	}
	w.steps += r.Clocks
	sink := e.opt.CacheSink
	if cs.cache == nil && (e.opt.Provenance != nil || e.cache != nil && sink != nil) {
		cs.canon.Canonicalize(cs.vec, len(cs.spec.Streams))
		cs.key.setVec(cs.vec)
	}
	e.opt.Provenance.observe(cs, r)
	if e.cache == nil {
		return r
	}
	tl.instantAt(w.id, TimelineCacheMiss, simNS, -1, cs.family)
	if cs.cache != nil {
		r.Canonical = cs.vec
		cs.cache.put(&cs.key, r.BW)
	}
	if sink == nil {
		return r
	}
	sink.Put(CacheRecord{
		Family: cs.family,
		M:      cs.spec.M, S: cs.spec.S, NC: cs.spec.NC,
		CPUs: append([]int(nil), cs.cpuList...),
		Vec:  append([]int(nil), cs.vec...),
		BW:   r.BW,
	})
	return r
}

// monoEpoch anchors monoNS.
var monoEpoch = time.Now()

// monoNS returns nanoseconds since monoEpoch. It reads only the
// monotonic clock, as Timeline.Start does, where time.Now reads the
// wall clock too.
func monoNS() int64 { return time.Since(monoEpoch).Nanoseconds() }

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
// worker's simulator for its configuration and detects its steady
// state into the worker's Cycle; the answer carries the kernel's path
// and the cycle's cost, which record counts. A simulator that holds
// ports on the spec's CPUs is re-armed in place; any other is Reset
// and given the spec's streams. The search is timed by two monotonic
// clock readings (see monoNS) into the worker's cycleNS.
func (w *worker) simulate(cs *compiledSpec, v []int) Resolution {
	sys := w.system(cs.cfg)
	n := len(cs.cpuList)
	if !sys.Rearm(cs.cpuList, v[n:], v[:n]) {
		sys.Reset()
		addSpecStreams(sys, cs.spec, v)
	}
	tl := w.e.opt.Timeline
	t0 := monoNS()
	ts := tl.Start()
	c := &w.cyc
	err := sys.FindCycleInto(c, FindCycleBudget)
	w.cycleNS += monoNS() - t0
	tl.Slice(w.id, TimelineFindCycle, ts, -1, "")
	if err != nil {
		panic(fmt.Sprintf("sweep: %s: %v", describeSpec(cs.spec, v), err))
	}
	r := Resolution{BW: c.EffectiveBandwidth(), Path: PathSimScalar, CycleLength: c.Length, Clocks: c.Lead + c.Length}
	if sys.Kernel() == memsys.KernelPacked {
		r.Path = PathSimPacked
	}
	return r
}
