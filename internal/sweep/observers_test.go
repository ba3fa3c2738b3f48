package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ivm/internal/memsys"
)

// One recording point, many observers: every observer the answer
// route feeds — Timeline, Provenance, CacheSink, the item latency
// histogram and a request's SpanSink — must report exactly the accounting the
// engine's own counters keep, for every family, pool size and cache
// setting.

type countingCacheSink struct{ n atomic.Int64 }

func (c *countingCacheSink) Put(CacheRecord) { c.n.Add(1) }

type countingSpans struct {
	mu sync.Mutex
	n  map[string]int64
}

func (c *countingSpans) Start() int64 { return 0 }

func (c *countingSpans) Span(name string, _ int64) {
	c.mu.Lock()
	c.n[name]++
	c.mu.Unlock()
}

// observerSpecs covers the pair (part gated), section, stream4 and
// non-default policy families.
func observerSpecs() []ConfigSpec {
	specs := GridSpecs(8, 0, 2)
	specs = append(specs, GridSpecs(8, 2, 2)...)
	specs = append(specs, nStreamSpecs(5, 2, 4)[:3]...)
	return append(specs, policySpecs(memsys.CyclicPriority, memsys.CyclicSections)...)
}

// fixPlacements pins every swept stream of specs at a start derived
// from its position, giving a fixed-placement batch for ResolveBatch.
func fixPlacements(specs []ConfigSpec) []ConfigSpec {
	out := make([]ConfigSpec, len(specs))
	for i, spec := range specs {
		streams := append([]Stream(nil), spec.Streams...)
		for j := range streams {
			if streams[j].Sweep {
				streams[j].Sweep = false
				streams[j].B = (3*i + j) % spec.M
			}
		}
		spec.Streams = streams
		out[i] = spec
	}
	return out
}

func TestObserversSeeOneRecord(t *testing.T) {
	specs := observerSpecs()
	batch := fixPlacements(specs)
	for _, workers := range []int{1, 4} {
		for _, cacheSize := range []int{0, -1} {
			t.Run(fmt.Sprintf("workers=%d/cache=%d", workers, cacheSize), func(t *testing.T) {
				tl := NewTimeline(1 << 20)
				var sink countingCacheSink
				eng := NewEngine(Options{
					Workers: workers, CacheSize: cacheSize,
					Timeline: tl, Provenance: NewProvenance(0), CacheSink: &sink,
				})
				// The per-placement route, where every placement the cache
				// counts is canonicalised and probed; the class-folded
				// SpecGrid's observers are TestObserversKeepTheRoute's.
				sweepSpecs(eng, specs, specFold)
				before := eng.Metrics()
				spans := &countingSpans{n: map[string]int64{}}
				ctx := WithSpanSink(context.Background(), spans)
				var paths [numPaths]int64
				for pass := 0; pass < 2; pass++ {
					res, err := eng.ResolveBatchCtx(ctx, batch)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range res {
						paths[r.Path]++
					}
				}
				checkObservers(t, eng, tl, sink.n.Load())
				checkBatchSpans(t, eng, batch, before, paths, spans.n)
			})
		}
	}
}

// checkObservers compares every observer with the engine's Metrics.
func checkObservers(t *testing.T, eng *Engine, tl *Timeline, cacheRecords int64) {
	t.Helper()
	snap := eng.Snapshot()
	m := snap.Metrics
	if m.AnalyticHits == 0 || m.CyclesFound == 0 || (eng.cache != nil && m.CacheHits == 0) {
		t.Fatalf("specs miss an answer path: %+v", m)
	}
	for _, fam := range []string{"pair", "section", "stream4", "pair-cyc", "section-cyc"} {
		if _, ok := m.Families[fam]; !ok && eng.cache != nil {
			t.Fatalf("no %s traffic: %+v", fam, m.Families)
		}
	}
	if tl.Dropped() != 0 {
		t.Fatalf("timeline dropped %d events", tl.Dropped())
	}
	kinds := map[TimelineKind]int64{}
	for _, ev := range tl.Events() {
		kinds[ev.Kind]++
	}
	for _, c := range []struct {
		kind TimelineKind
		want int64
	}{
		{TimelineAnalytic, m.AnalyticHits},
		{TimelineCacheHit, m.CacheHits},
		{TimelineCacheMiss, m.CacheMisses},
		{TimelineCanon, m.CacheHits + m.CacheMisses},
		{TimelineSimulate, m.CyclesFound},
		{TimelineFindCycle, m.CyclesFound},
		{TimelineItem, m.PairsSwept},
	} {
		if kinds[c.kind] != c.want {
			t.Errorf("%d %v events, metrics say %d", kinds[c.kind], c.kind, c.want)
		}
	}
	// The Provenance recorder keeps its own orbit rows: every cache hit
	// and simulation must land in exactly one of them.
	var rows int64
	for _, f := range snap.Provenance.Families {
		for _, b := range f.OrbitSizes {
			rows += b.Placements
		}
	}
	if rows != m.CacheHits+m.CyclesFound {
		t.Errorf("provenance orbit rows hold %d placements, engine hits+sims %d", rows, m.CacheHits+m.CyclesFound)
	}
	if cacheRecords != m.CacheMisses {
		t.Errorf("cache sink saw %d records for %d misses", cacheRecords, m.CacheMisses)
	}
	if n := eng.ItemLatency().Count; n != m.PairsSwept {
		t.Errorf("%d latency observations for %d items", n, m.PairsSwept)
	}
}

// checkBatchSpans compares the batch's span counts with the paths its
// resolutions report and with the counter deltas since before.
func checkBatchSpans(t *testing.T, eng *Engine, batch []ConfigSpec, before Metrics, paths [numPaths]int64, spans map[string]int64) {
	t.Helper()
	m := eng.Metrics()
	sims := paths[PathSimScalar] + paths[PathSimPacked]
	if paths[PathAnalytic] != m.AnalyticHits-before.AnalyticHits ||
		paths[PathCache] != m.CacheHits-before.CacheHits ||
		sims != m.CyclesFound-before.CyclesFound {
		t.Errorf("batch paths %v disagree with metric deltas", paths)
	}
	w := &worker{e: NewEngine(eng.opt)}
	var gated int64
	for _, spec := range batch {
		if w.compile(spec).gate != nil {
			gated++
		}
	}
	probed := int64(0)
	if eng.cache != nil {
		probed = 2*int64(len(batch)) - paths[PathAnalytic]
	}
	for name, want := range map[string]int64{
		SpanGate:       2 * gated,
		SpanCanon:      probed,
		SpanCacheProbe: probed,
		SpanSimulate:   sims,
	} {
		if spans[name] != want {
			t.Errorf("%d %q spans, the batch's paths imply %d", spans[name], name, want)
		}
	}
}
