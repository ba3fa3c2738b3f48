package sweep

import (
	"fmt"
	"strconv"

	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/rat"
	"ivm/internal/stream"
	"ivm/internal/textplot"
)

// The generic N-stream configuration specification. The paper's model
// is one machine with p ports, so stride pairs, stride triples and the
// sectioned Theorem 8/9 pairs are all the same object at different N
// and CPU layouts; ConfigSpec expresses that object directly. Every
// sweep entry point is a spec list run through one route — sweepSpecs
// on the engine (worker.bw canonicalises and caches every family),
// coldSpecs for the cold oracle — and reduced per spec by one of three
// folds: pairFold (Theorems 2–7), sectionFold (Theorems 8/9) or
// specFold (the capacity bound). The tables are byte-identical to the
// pre-spec implementation, which the golden tests under testdata/ pin.

// Stream is one access stream of a ConfigSpec: stride D issued from
// CPU, starting at bank B. When Sweep is set, grid sweeps iterate the
// start over all m banks instead of holding B fixed.
type Stream struct {
	D     int
	B     int
	CPU   int
	Sweep bool
}

// ConfigSpec describes an N-stream configuration of an (m, s, n_c)
// interleaved memory: M banks, S sections (0 means sectionless, i.e.
// one section per bank), bank busy time NC, and one Stream per port in
// priority order. The spec is the unit of caching: its family, memory
// shape, CPU layout and canonicalised (d_1..d_N, b_1..b_N) vector form
// the cache key.
type ConfigSpec struct {
	M, S, NC int
	Streams  []Stream
	// Mapping selects the bank-to-section distribution.
	// memsys.ConsecutiveSections (the Fig. 9 remedy, section(j) =
	// floor(j / (m/s)) instead of the cyclic j mod s) is only meaningful
	// with S > 0; it narrows the cache's canonicalisation group (see
	// worker.pipelineFor and docs/CACHING.md) and keys its own
	// configuration families ("-consec" suffix).
	Mapping memsys.SectionMapping
	// Priority selects the arbitration rule among simultaneous
	// requests. Non-default rules key their own configuration families
	// ("-cyc" / "-rrcpu" suffixes); the canonicalisation pipeline is
	// unchanged — arbitration is bank-blind, so bank renumbering
	// commutes with every rule (docs/CACHING.md) — but the analytic
	// pair gate declines anything but fixed priority.
	Priority memsys.PriorityRule
}

// WithPolicy returns a copy of the spec under the given arbitration
// rule and section mapping — the fluent way to lift any family
// constructor (PairSpec, SectionPairSpec, …) into a policy variant.
func (c ConfigSpec) WithPolicy(priority memsys.PriorityRule, mapping memsys.SectionMapping) ConfigSpec {
	c.Priority = priority
	c.Mapping = mapping
	return c
}

// Validate checks the spec against the memory system's invariants.
func (c ConfigSpec) Validate() error {
	if c.M <= 0 {
		return fmt.Errorf("spec: %d banks", c.M)
	}
	if c.NC <= 0 {
		return fmt.Errorf("spec: bank busy time %d", c.NC)
	}
	if c.S < 0 {
		return fmt.Errorf("spec: %d sections", c.S)
	}
	if c.S > 0 && c.M%c.S != 0 {
		return fmt.Errorf("spec: sections %d must divide banks %d", c.S, c.M)
	}
	switch c.Mapping {
	case memsys.CyclicSections:
	case memsys.ConsecutiveSections:
		if c.S == 0 {
			return fmt.Errorf("spec: consecutive mapping needs sections")
		}
	default:
		return fmt.Errorf("spec: unknown section mapping %d", int(c.Mapping))
	}
	switch c.Priority {
	case memsys.FixedPriority, memsys.CyclicPriority, memsys.RoundRobinPerCPU:
	default:
		return fmt.Errorf("spec: unknown priority rule %d", int(c.Priority))
	}
	if len(c.Streams) == 0 {
		return fmt.Errorf("spec: no streams")
	}
	for i, st := range c.Streams {
		if st.CPU < 0 {
			return fmt.Errorf("spec: stream %d on CPU %d", i+1, st.CPU)
		}
	}
	return nil
}

// Family names the spec's configuration family — the string that keys
// the per-family cache counters and, together with the CPU layout,
// partitions the cache. The three historical families keep their
// names: "pair" (two sectionless streams on CPUs 0 and 1), "triple"
// (three sectionless streams on CPUs 0, 1, 2) and "section" (two
// streams of one CPU against a sectioned memory). Other shapes derive
// "streamN" / "sectionN" names from the stream count. Non-default
// policies append suffixes — "-consec" for the consecutive mapping,
// then "-cyc" / "-rrcpu" for a rotating priority rule — so specs that
// differ in policy produce different conflict structures and must
// never collide in the cache; the default (cyclic mapping, fixed
// priority) keeps the bare historical names, which pins every
// pre-policy golden, benchmark family key and served response byte.
func (c ConfigSpec) Family() string {
	n := len(c.Streams)
	var name string
	if c.S == 0 {
		switch {
		case n == 2 && c.Streams[0].CPU == 0 && c.Streams[1].CPU == 1:
			name = "pair"
		case n == 3 && c.Streams[0].CPU == 0 && c.Streams[1].CPU == 1 && c.Streams[2].CPU == 2:
			name = "triple"
		default:
			name = "stream" + strconv.Itoa(n)
		}
	} else {
		name = "section" + strconv.Itoa(n)
		if n == 2 && c.Streams[0].CPU == 0 && c.Streams[1].CPU == 0 {
			name = "section"
		}
	}
	if c.Mapping == memsys.ConsecutiveSections {
		name += "-consec"
	}
	switch c.Priority {
	case memsys.CyclicPriority:
		name += "-cyc"
	case memsys.RoundRobinPerCPU:
		name += "-rrcpu"
	}
	return name
}

// PairSpec is the sectionless two-stream family: stream 1 fixed at
// bank 0 on CPU 0, stream 2 swept on CPU 1 — the configuration of the
// Theorem 2–7 cross-validation grid.
func PairSpec(m, nc, d1, d2 int) ConfigSpec {
	return ConfigSpec{M: m, NC: nc, Streams: []Stream{
		{D: d1, CPU: 0},
		{D: d2, CPU: 1, Sweep: true},
	}}
}

// SectionPairSpec is the sectioned two-stream family of the Theorem
// 8/9 sweeps: both streams on CPU 0, stream 2 swept, s | m sections.
func SectionPairSpec(m, s, nc, d1, d2 int) ConfigSpec {
	return ConfigSpec{M: m, S: s, NC: nc, Streams: []Stream{
		{D: d1, CPU: 0},
		{D: d2, CPU: 0, Sweep: true},
	}}
}

// TripleSpec is the sectionless three-stream family with stream 1
// fixed at bank 0 and streams 2 and 3 swept over all m^2 relative
// placements.
func TripleSpec(m, nc int, d [3]int) ConfigSpec {
	return ConfigSpec{M: m, NC: nc, Streams: []Stream{
		{D: d[0], CPU: 0},
		{D: d[1], CPU: 1, Sweep: true},
		{D: d[2], CPU: 2, Sweep: true},
	}}
}

// TripleCensusSpec is the fixed-placement three-stream census
// configuration: all three starts held at b. Placements that are
// translates of one another canonicalise to the same cache key, so a
// census at (t, 1+t, 2+t) reuses the cyclic states of the standard
// (0, 1, 2) census.
func TripleCensusSpec(m, nc int, d, b [3]int) ConfigSpec {
	return ConfigSpec{M: m, NC: nc, Streams: []Stream{
		{D: d[0], B: b[0], CPU: 0},
		{D: d[1], B: b[1], CPU: 1},
		{D: d[2], B: b[2], CPU: 2},
	}}
}

// NStreamSpec generalises PairSpec/TripleSpec to N sectionless
// streams, one per CPU: stream 1 fixed at bank 0, the rest swept.
func NStreamSpec(m, nc int, d []int) ConfigSpec {
	streams := make([]Stream, len(d))
	for i, di := range d {
		streams[i] = Stream{D: di, CPU: i, Sweep: i > 0}
	}
	return ConfigSpec{M: m, NC: nc, Streams: streams}
}

// --- Simulation ---------------------------------------------------------

// specConfig derives the memory-system configuration: the spec's
// memory shape plus one CPU per distinct issuing CPU index.
func specConfig(spec ConfigSpec) memsys.Config {
	cpus := 1
	for _, st := range spec.Streams {
		if st.CPU+1 > cpus {
			cpus = st.CPU + 1
		}
	}
	return memsys.Config{
		Banks: spec.M, Sections: spec.S, BankBusy: spec.NC, CPUs: cpus,
		Mapping: spec.Mapping, Priority: spec.Priority,
	}
}

// streamLabel names stream i in tables and traces ("1", "2", …).
func streamLabel(i int) string {
	return strconv.Itoa(i + 1)
}

// addSpecStreams attaches the spec's streams for the configuration
// vector v = (d_1..d_N, b_1..b_N) — which may be a canonical orbit
// representative rather than the spec's literal placements.
func addSpecStreams(sys *memsys.System, spec ConfigSpec, v []int) {
	n := len(spec.Streams)
	var buf [4]memsys.StreamSpec
	ports := buf[:0]
	for i, st := range spec.Streams {
		ports = append(ports, memsys.StreamSpec{
			Start: v[n+i], Distance: v[i], CPU: st.CPU, Label: streamLabel(i),
		})
	}
	sys.AddStreams(ports...)
}

// describeSpec labels one placement for steady-state panic messages.
func describeSpec(spec ConfigSpec, v []int) string {
	return fmt.Sprintf("%s m=%d s=%d nc=%d v=%v", spec.Family(), spec.M, spec.S, spec.NC, v)
}

// simulateSpecVec is the cold oracle: a fresh system per placement,
// simulating configuration vector v.
func simulateSpecVec(spec ConfigSpec, v []int) rat.Rational {
	sys := memsys.New(specConfig(spec))
	addSpecStreams(sys, spec, v)
	c, err := sys.FindCycle(FindCycleBudget)
	if err != nil {
		panic(fmt.Sprintf("sweep: %s: %v", describeSpec(spec, v), err))
	}
	return c.EffectiveBandwidth()
}

// coldSpecs is the oracle half of the sweep route: the folds the engine
// runs in sweepSpecs, with every placement resolved by simulateSpecVec —
// no gate, no cache, no reused simulator — so the differential tests
// compare two independent routes to the same rows.
func coldSpecs[R any](specs []ConfigSpec, fold func(ConfigSpec, func(b []int) rat.Rational) R) []R {
	out := make([]R, len(specs))
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			panic("sweep: " + err.Error())
		}
		n := len(spec.Streams)
		v := make([]int, 2*n)
		for j, st := range spec.Streams {
			v[j] = st.D
		}
		out[i] = fold(spec, func(b []int) rat.Rational {
			copy(v[n:], b)
			return simulateSpecVec(spec, v)
		})
	}
	return out
}

// --- The generic sweep --------------------------------------------------

// SpecResult compares the simulated cyclic states of one ConfigSpec —
// over every placement of its swept streams — with the per-placement
// capacity bounds of core.CapacityBound. With no swept stream it is
// one fixed placement (the triple census row).
type SpecResult struct {
	Spec ConfigSpec
	// SimMin/SimMax are the extreme cyclic-state bandwidths over the
	// swept placements.
	SimMin, SimMax rat.Rational
	// BoundMin/BoundMax are the extreme per-placement capacity bounds.
	BoundMin, BoundMax rat.Rational
	// Starts is how many placements were simulated (m^k for k swept
	// streams).
	Starts int
	// TightStarts counts placements whose simulated bandwidth attains
	// their capacity bound exactly.
	TightStarts int
	// Violations counts placements whose simulated bandwidth exceeds
	// their capacity bound — always zero unless the simulator or the
	// bound is wrong.
	Violations int
}

// specCapacity is the aggregate capacity bound of the spec's streams,
// built once per spec; At bounds one placement without allocating.
func specCapacity(spec ConfigSpec) core.CapacityBound {
	sets := make([]core.StreamSet, len(spec.Streams))
	for i, st := range spec.Streams {
		sets[i] = core.StreamSet{Stream: stream.Infinite(spec.M, st.B, st.D), CPU: st.CPU}
	}
	return core.NewCapacityBound(spec.M, spec.S, spec.NC, sets)
}

// eachPlacement calls f with every placement of the spec's swept
// streams, each over [0, m), nested in stream order; fixed streams keep
// their starts. f must not keep b.
func eachPlacement(spec ConfigSpec, f func(b []int)) {
	b := make([]int, len(spec.Streams))
	for i, st := range spec.Streams {
		b[i] = st.B
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(spec.Streams) {
			f(b)
			return
		}
		if !spec.Streams[i].Sweep {
			rec(i + 1)
			return
		}
		for s := 0; s < spec.M; s++ {
			b[i] = s
			rec(i + 1)
		}
		b[i] = spec.Streams[i].B
	}
	rec(0)
}

// Placements expands specs into one fixed-placement spec per placement
// of their swept streams, in sweep order: the batch Engine.ResolveBatch
// answers one placement at a time through the orbit cache.
func Placements(specs []ConfigSpec) []ConfigSpec {
	var out []ConfigSpec
	for _, spec := range specs {
		eachPlacement(spec, func(b []int) {
			p := spec
			p.Streams = make([]Stream, len(b))
			for i, st := range spec.Streams {
				p.Streams[i] = Stream{D: st.D, B: b[i], CPU: st.CPU}
			}
			out = append(out, p)
		})
	}
	return out
}

// specFold is the capacity-bound fold: it folds the bandwidths bw
// reports for every placement eachPlacement enumerates against the
// bounds.
func specFold(spec ConfigSpec, bw func(b []int) rat.Rational) SpecResult {
	res := SpecResult{Spec: spec}
	capacity := specCapacity(spec)
	first := true
	eachPlacement(spec, func(b []int) {
		v := bw(b)
		bound := capacity.At(b)
		if first || v.Cmp(res.SimMin) < 0 {
			res.SimMin = v
		}
		if first || v.Cmp(res.SimMax) > 0 {
			res.SimMax = v
		}
		if first || bound.Cmp(res.BoundMin) < 0 {
			res.BoundMin = bound
		}
		if first || bound.Cmp(res.BoundMax) > 0 {
			res.BoundMax = bound
		}
		first = false
		res.Starts++
		switch v.Cmp(bound) {
		case 0:
			res.TightStarts++
		case 1:
			res.Violations++
		}
	})
	return res
}

// SpecGrid sweeps an explicit list of ConfigSpecs, one result per spec
// in input order, on the cold oracle path; Engine.SpecGrid is the
// parallel, cached equivalent and returns byte-identical results.
func SpecGrid(specs []ConfigSpec) []SpecResult { return coldSpecs(specs, specFold) }

// nStreamDistances enumerates the nondecreasing distance N-tuples of
// the N-stream grid in sweep order, skipping self-conflicting streams
// (return number < n_c) exactly as gridPairs does.
func nStreamDistances(m, nc, n int) [][]int {
	var allowed []int
	for d := 0; d < m; d++ {
		if stream.ReturnNumber(m, d) >= nc {
			allowed = append(allowed, d)
		}
	}
	var out [][]int
	tuple := make([]int, n)
	var rec func(i, lo int)
	rec = func(i, lo int) {
		if i == n {
			out = append(out, append([]int(nil), tuple...))
			return
		}
		for j := lo; j < len(allowed); j++ {
			tuple[i] = allowed[j]
			rec(i+1, j)
		}
	}
	rec(0, 0)
	return out
}

// NStreamGrid sweeps every nondecreasing non-self-conflicting distance
// N-tuple of an (m, n_c) memory, one stream per CPU, over all m^(N-1)
// relative placements. For N = 2 and 3 the specs fall into the "pair"
// and "triple" cache families, so the cyclic states are shared with
// the dedicated grids. Cold oracle path; Engine.NStreamGrid is the
// parallel, cached equivalent.
func NStreamGrid(m, nc, n int) []SpecResult { return coldSpecs(nStreamSpecs(m, nc, n), specFold) }

func nStreamSpecs(m, nc, n int) []ConfigSpec {
	ds := nStreamDistances(m, nc, n)
	specs := make([]ConfigSpec, len(ds))
	for i, d := range ds {
		specs[i] = NStreamSpec(m, nc, d)
	}
	return specs
}

// GridSpecs lists the pair sweep's distance pairs (Grid's enumeration)
// as specs, in sweep order; s != 0 selects the section sweep's
// enumeration instead. Grid and SectionGrid fold exactly these specs;
// combined with ConfigSpec.WithPolicy and SpecGrid this is the policy
// sweep: the same pair families under any arbitration priority and
// section mapping.
func GridSpecs(m, s, nc int) []ConfigSpec {
	pairs := gridPairs(m, nc)
	out := make([]ConfigSpec, len(pairs))
	for i, p := range pairs {
		if s != 0 {
			out[i] = SectionPairSpec(m, s, nc, p[0], p[1])
		} else {
			out[i] = PairSpec(m, nc, p[0], p[1])
		}
	}
	return out
}

// SpecTable renders an N-stream grid sweep as an aligned text table;
// all results must share one stream count.
func SpecTable(results []SpecResult) string {
	if len(results) == 0 {
		return ""
	}
	n := len(results[0].Spec.Streams)
	header := make([]string, 0, n+4)
	for i := 0; i < n; i++ {
		header = append(header, "d"+strconv.Itoa(i+1))
	}
	header = append(header, "bound", "sim min", "sim max", "tight")
	t := &textplot.Table{Header: header}
	row := make([]any, 0, n+4)
	for _, r := range results {
		row = row[:0]
		for _, st := range r.Spec.Streams {
			row = append(row, st.D)
		}
		bound := r.BoundMax.String()
		if !r.BoundMin.Equal(r.BoundMax) {
			bound = r.BoundMin.String() + ".." + r.BoundMax.String()
		}
		row = append(row, bound, r.SimMin.String(), r.SimMax.String(),
			fmt.Sprintf("%d/%d", r.TightStarts, r.Starts))
		t.Add(row...)
	}
	return t.String()
}

// SummariseSpecGrid reduces an N-stream grid sweep.
func SummariseSpecGrid(results []SpecResult) TripleGridSummary {
	var s TripleGridSummary
	s.Triples = len(results)
	if len(results) > 0 {
		s.M, s.NC = results[0].Spec.M, results[0].Spec.NC
	}
	for _, r := range results {
		s.Starts += r.Starts
		s.TightStarts += r.TightStarts
		s.Violations += r.Violations
		if r.TightStarts > 0 {
			s.TightSomewhere++
		}
	}
	return s
}
