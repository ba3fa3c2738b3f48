package obs

// Dependency-free Prometheus text exposition (format 0.0.4): the
// Registry gathers PromMetric slices from registered sources and
// renders them with HELP/TYPE headers, escaped labels and Go-shortest
// float values, so a stock Prometheus server can scrape a running
// sweep from the same -metrics-addr server that exposes the JSON
// snapshot (/metrics.json), expvar and pprof. The exposition is pinned
// by a golden test and by cmd/ivmsweep's live scrape test; metric
// names are documented in docs/OBSERVABILITY.md.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"ivm/internal/obs/latency"
	"ivm/internal/sweep"
)

// PromSample is one sample line of a Prometheus metric: an optional
// label set and the value. Suffix, when set, is appended to the
// metric name on the sample line — how histogram series render their
// _bucket/_sum/_count families under one HELP/TYPE header.
type PromSample struct {
	Suffix string
	Labels []PromLabel
	Value  float64
}

// PromLabel is one name="value" pair of a sample's label set.
type PromLabel struct {
	Name, Value string
}

// PromMetric is one Prometheus metric family: name, HELP text, TYPE
// ("counter" or "gauge") and its samples. Sources returning several
// metrics with the same name are merged under the first HELP/TYPE.
type PromMetric struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// Counter builds a counter metric with unlabelled value v.
func Counter(name, help string, v float64) PromMetric {
	return PromMetric{Name: name, Help: help, Type: "counter", Samples: []PromSample{{Value: v}}}
}

// Gauge builds a gauge metric with unlabelled value v.
func Gauge(name, help string, v float64) PromMetric {
	return PromMetric{Name: name, Help: help, Type: "gauge", Samples: []PromSample{{Value: v}}}
}

// Sample appends a labelled sample to the metric, replacing the bare
// seed sample a Counter/Gauge constructor installed. Labels are
// name/value pairs: Sample("family", "pair", 3).
func (m PromMetric) Sample(pairs ...any) PromMetric {
	if len(pairs)%2 != 1 {
		panic("obs: Sample wants label name/value pairs then a value")
	}
	s := PromSample{}
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Labels = append(s.Labels, PromLabel{pairs[i].(string), fmt.Sprint(pairs[i+1])})
	}
	switch v := pairs[len(pairs)-1].(type) {
	case float64:
		s.Value = v
	case int64:
		s.Value = float64(v)
	case int:
		s.Value = float64(v)
	default:
		panic("obs: Sample value must be numeric")
	}
	if len(m.Samples) == 1 && len(m.Samples[0].Labels) == 0 && m.Samples[0].Value == 0 {
		m.Samples = m.Samples[:0]
	}
	m.Samples = append(m.Samples, s)
	return m
}

// Histogram builds an empty Prometheus histogram metric; attach
// per-label-set series with HistSample.
func Histogram(name, help string) PromMetric {
	return PromMetric{Name: name, Help: help, Type: "histogram"}
}

// The exposition window: histogram bucket series are emitted for upper
// bounds 2^expoMinBucket..2^expoMaxBucket nanoseconds (~4.1us to
// ~17.2s) plus +Inf, keeping the per-series cardinality bounded while
// spanning every plausible request latency. Counts outside the window
// still land in _sum/_count and the edge buckets' cumulative totals.
const (
	expoMinBucket = 12
	expoMaxBucket = 34
)

// HistSample appends one histogram series to the metric from a
// latency.Hist snapshot: cumulative _bucket samples over the fixed
// exposition window (so every series of the family shares the same le
// grid) plus +Inf, then _sum and _count. pairs are label name/value
// pairs applied to every sample of the series:
// HistSample(snap, "endpoint", "batch").
func (m PromMetric) HistSample(snap latency.Snapshot, pairs ...any) PromMetric {
	if len(pairs)%2 != 0 {
		panic("obs: HistSample wants label name/value pairs")
	}
	labels := make([]PromLabel, 0, len(pairs)/2+1)
	for i := 0; i+1 < len(pairs); i += 2 {
		labels = append(labels, PromLabel{pairs[i].(string), fmt.Sprint(pairs[i+1])})
	}
	leLabels := func(le string) []PromLabel {
		out := make([]PromLabel, len(labels), len(labels)+1)
		copy(out, labels)
		return append(out, PromLabel{"le", le})
	}
	var cum int64
	bi := 0
	for k := expoMinBucket; k <= expoMaxBucket; k++ {
		upper := float64(int64(1)<<k) / 1e9
		for bi < len(snap.Buckets) && snap.Buckets[bi].UpperSeconds <= upper {
			cum += snap.Buckets[bi].Count
			bi++
		}
		m.Samples = append(m.Samples, PromSample{
			Suffix: "_bucket", Labels: leLabels(promValue(upper)), Value: float64(cum),
		})
	}
	m.Samples = append(m.Samples,
		PromSample{Suffix: "_bucket", Labels: leLabels("+Inf"), Value: float64(snap.Count)},
		PromSample{Suffix: "_sum", Labels: labels, Value: snap.SumSeconds},
		PromSample{Suffix: "_count", Labels: labels, Value: float64(snap.Count)})
	return m
}

// promEscaper escapes HELP text (backslash and newline).
var promEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// promLabelEscaper escapes label values (backslash, quote, newline).
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promValue renders a sample value the way Prometheus clients do:
// shortest float representation, with the special values spelled out.
func promValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePromText renders the metrics in Prometheus text exposition
// format 0.0.4, sorted by metric name; same-name metrics merge their
// samples under the first metric's HELP and TYPE.
func WritePromText(w io.Writer, metrics []PromMetric) error {
	byName := make(map[string]*PromMetric)
	var names []string
	for _, m := range metrics {
		if prev, ok := byName[m.Name]; ok {
			prev.Samples = append(prev.Samples, m.Samples...)
			continue
		}
		mm := m
		byName[m.Name] = &mm
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := byName[name]
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, promEscaper.Replace(m.Help)); err != nil {
				return err
			}
		}
		typ := m.Type
		if typ == "" {
			typ = "untyped"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, typ); err != nil {
			return err
		}
		for _, s := range m.Samples {
			var lb strings.Builder
			if len(s.Labels) > 0 {
				lb.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						lb.WriteByte(',')
					}
					fmt.Fprintf(&lb, `%s="%s"`, l.Name, promLabelEscaper.Replace(l.Value))
				}
				lb.WriteByte('}')
			}
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", m.Name, s.Suffix, lb.String(), promValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RegisterProm adds (or replaces) a named Prometheus metrics source,
// polled on every /metrics scrape. Like Register, the function must be
// safe to call concurrently with the instrumented work.
func (r *Registry) RegisterProm(name string, source func() []PromMetric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promSources == nil {
		r.promSources = make(map[string]func() []PromMetric)
	}
	r.promSources[name] = source
}

// GatherProm polls every Prometheus source once, prepending the
// always-on ivm_up gauge so even an empty registry scrapes as a live
// target with a stable exposition.
func (r *Registry) GatherProm() []PromMetric {
	r.mu.Lock()
	sources := make([]func() []PromMetric, 0, len(r.promSources))
	names := make([]string, 0, len(r.promSources))
	for name := range r.promSources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sources = append(sources, r.promSources[name])
	}
	r.mu.Unlock()
	out := []PromMetric{Gauge("ivm_up", "Whether the ivm metrics endpoint is serving.", 1)}
	for _, f := range sources {
		out = append(out, f()...)
	}
	return out
}

// PromHandler serves the registry's Prometheus sources in text
// exposition format 0.0.4 (the /metrics endpoint of Serve).
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePromText(w, r.GatherProm()) //nolint:errcheck // client gone
	})
}

// SweepPromMetrics adapts a sweep engine to a Prometheus source:
// global and per-family cache counters, wall and detection time, the
// work-item latency histogram, and — when the engine records
// provenance — the per-path, per-theorem and orbit attribution
// counters.
func SweepPromMetrics(eng *sweep.Engine) func() []PromMetric {
	return func() []PromMetric {
		s := eng.Snapshot()
		m := s.Metrics
		out := []PromMetric{
			Gauge("ivm_sweep_workers", "Configured sweep worker pool size.", float64(s.Workers)),
			Counter("ivm_sweep_units_total", "Sweep units (pairs, triples, section pairs, specs) completed.", float64(m.PairsSwept)),
			Counter("ivm_sweep_cycles_found_total", "Cyclic steady states detected by simulation.", float64(m.CyclesFound)),
			Counter("ivm_sweep_steps_simulated_total", "Simulator clock periods stepped.", float64(m.StepsSimulated)),
			Counter("ivm_sweep_cache_hits_total", "Placements answered from the canonical-key cache.", float64(m.CacheHits)),
			Counter("ivm_sweep_cache_misses_total", "Placements that had to be simulated.", float64(m.CacheMisses)),
			Counter("ivm_sweep_analytic_hits_total", "Placements answered by the theorem-driven classifier gate.", float64(m.AnalyticHits)),
			Gauge("ivm_sweep_cache_entries", "Entries currently held by the bandwidth cache.", float64(m.CacheEntries)),
			Counter("ivm_sweep_cache_evicted_total", "Cache entries discarded by wholesale shard drops.", float64(eng.CacheEvicted())),
			Gauge("ivm_sweep_cache_hit_ratio", "Cache hits over cache traffic (0 when unused).", m.HitRate()),
			Gauge("ivm_sweep_analytic_hit_ratio", "Analytic answers over all placements resolved.", m.AnalyticHitRate()),
			Counter("ivm_sweep_wall_seconds_total", "Wall time spent inside sweep calls.", float64(s.WallNS)/1e9),
			Counter("ivm_sweep_cycle_detect_seconds_total", "Wall time spent in steady-state detection, summed across workers.", float64(s.CycleDetectNS)/1e9),
			Histogram("ivm_sweep_item_duration_seconds", "Sweep work-item latency distribution (log2 buckets).").HistSample(eng.ItemLatency()),
		}
		famNames := make([]string, 0, len(m.Families))
		for name := range m.Families {
			famNames = append(famNames, name)
		}
		sort.Strings(famNames)
		hits := PromMetric{Name: "ivm_sweep_family_cache_hits_total", Help: "Cache hits by configuration family.", Type: "counter"}
		misses := PromMetric{Name: "ivm_sweep_family_cache_misses_total", Help: "Cache misses by configuration family.", Type: "counter"}
		analytic := PromMetric{Name: "ivm_sweep_family_analytic_hits_total", Help: "Analytic gate answers by configuration family.", Type: "counter"}
		for _, name := range famNames {
			f := m.Families[name]
			hits = hits.Sample("family", name, f.Hits)
			misses = misses.Sample("family", name, f.Misses)
			analytic = analytic.Sample("family", name, f.Analytic)
		}
		if len(famNames) > 0 {
			out = append(out, hits, misses, analytic)
		}
		if s.Provenance != nil {
			out = append(out, provenancePromMetrics(*s.Provenance)...)
		}
		return out
	}
}

// provenancePromMetrics renders a provenance snapshot's attribution
// counters as Prometheus metrics.
func provenancePromMetrics(ps sweep.ProvenanceSnapshot) []PromMetric {
	path := PromMetric{Name: "ivm_provenance_path_total",
		Help: "Placements resolved by answer path (analytic, cache, sim-scalar, sim-packed), by family.", Type: "counter"}
	theorem := PromMetric{Name: "ivm_provenance_theorem_hits_total",
		Help: "Analytic answers by paper theorem/equation identifier, by family.", Type: "counter"}
	orbits := PromMetric{Name: "ivm_provenance_orbits",
		Help: "Distinct canonical orbits observed, by family.", Type: "gauge"}
	singleton := PromMetric{Name: "ivm_provenance_singleton_orbits",
		Help: "Canonical orbits observed exactly once (simulated, never reused), by family.", Type: "gauge"}
	clocks := PromMetric{Name: "ivm_provenance_sim_clocks_total",
		Help: "Lead plus cycle clocks stepped by this family's simulations.", Type: "counter"}
	names := make([]string, 0, len(ps.Families))
	for name := range ps.Families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := ps.Families[name]
		for p := sweep.PathAnalytic; p <= sweep.PathSimPacked; p++ {
			path = path.Sample("family", name, "path", p.String(), f.Count(p))
		}
		thms := make([]string, 0, len(f.Theorems))
		for id := range f.Theorems {
			thms = append(thms, id)
		}
		sort.Strings(thms)
		for _, id := range thms {
			theorem = theorem.Sample("family", name, "theorem", id, f.Theorems[id])
		}
		orbits = orbits.Sample("family", name, f.Orbits)
		singleton = singleton.Sample("family", name, f.SingletonOrbits)
		clocks = clocks.Sample("family", name, f.SimClocks)
	}
	out := []PromMetric{path, orbits, singleton, clocks,
		Counter("ivm_provenance_dropped_orbits_total",
			"Canonical orbits past the recorder capacity whose per-orbit rows were not tracked.",
			float64(ps.DroppedOrbits))}
	if len(theorem.Samples) > 0 {
		out = append(out, theorem)
	}
	return out
}
