package sweep

import "ivm/internal/rat"

// Spec classes: the paper's isomorphism d1 ⊕ d2 ≅ k·d1 ⊕ k·d2 (mod m),
// gcd(k, m) = 1, stated on whole specs. Scaling by a unit u of the
// spec's canonicalisation group maps every placement (d, b) of a spec
// onto the placement (u·d, u·b) of the spec at distances u·d: a swept
// start ranges over all of Z_m, and so does its image, and a fixed start
// at bank 0 stays at 0. The map is a bijection between the two specs'
// placement sets that keeps every placement's canonical cache key, so
// it keeps each b_eff; it keeps each capacity bound too, since a unit
// permutes banks and sections and keeps every return number. The two
// specs' SpecResults are therefore equal apart from Spec, and a class
// of such specs need be folded only once (docs/CACHING.md, "Spec
// classes").

// classKey identifies a unit-isomorphism class of specs: the family
// (which carries the stream count and the policy), the memory shape,
// and the packed CPU layout, swept-stream mask and pipeline-canonical
// distance prefix.
type classKey struct {
	family   string
	m, s, nc int
	layout   string
}

// specClasses returns, for each spec, the index of the first spec of
// its class in input order (its own index when it leads its class), or
// -1 when the spec is a class of its own: when the engine has no cache,
// when a Provenance recorder is attached (it counts each placement's
// orbit), when the analytic gate answers the spec (gated answers are
// counted by theorem) and when a fixed stream starts away from bank 0
// (a unit moves such a start, so the scaled placements are another
// spec's).
func (e *Engine) specClasses(specs []ConfigSpec) []int {
	lead := make([]int, len(specs))
	for i := range lead {
		lead[i] = -1
	}
	if e.cache == nil || e.opt.Provenance != nil {
		return lead
	}
	w := &worker{e: e}
	seen := make(map[classKey]int)
	var layout []int
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			panic("sweep: " + err.Error())
		}
		if e.pairGate(spec) != nil || !fixedAtZero(spec) {
			continue
		}
		n := len(spec.Streams)
		v := make([]int, 2*n) // (d, 0…0): the prefix of its canonical form
		layout = layout[:0]
		for j, st := range spec.Streams {
			v[j] = st.D
			sweep := 0
			if st.Sweep {
				sweep = 1
			}
			layout = append(layout, st.CPU, sweep)
		}
		w.pipelineFor(spec.M, spec.S, spec.Mapping).Canonicalize(v, n)
		layout = append(layout, v[:n]...)
		k := classKey{family: spec.Family(), m: spec.M, s: spec.S, nc: spec.NC, layout: packInts(layout)}
		if j, ok := seen[k]; ok {
			lead[i] = j
		} else {
			seen[k] = i
			lead[i] = i
		}
	}
	return lead
}

// fixedAtZero reports whether every fixed stream of spec starts at bank
// 0.
func fixedAtZero(spec ConfigSpec) bool {
	for _, st := range spec.Streams {
		if !st.Sweep && st.B != 0 {
			return false
		}
	}
	return true
}

// specGrid is the engine's capacity-bound sweep (TripleGrid,
// NStreamGrid, SpecGrid). The first spec of each class is a work item
// folded by specFold through the answer route without the orbit cache:
// the classes share no orbit, so only the lead's own placements could
// hit, and each placement is simulated as given, with no canonical key,
// probe or put. A spec that is a class of its own keeps the cached
// route. Once every such item has finished, each other spec of a class
// is a work item that copies its lead's result under its own Spec and
// counts its placements as cache hits of its family. Both passes run
// through Engine.run, so the planned and completed items, the item
// latency histogram and the timeline still count one item per spec.
func (e *Engine) specGrid(specs []ConfigSpec) []SpecResult {
	lead := e.specClasses(specs)
	var first, rest []int
	for i, j := range lead {
		if j < 0 || j == i {
			first = append(first, i)
		} else {
			rest = append(rest, i)
		}
	}
	out := make([]SpecResult, len(specs))
	e.run(len(first), func(w *worker, k int) {
		i := first[k]
		cs := w.compile(specs[i])
		if lead[i] == i {
			cs.cache = nil
		}
		out[i] = specFold(specs[i], func(b []int) rat.Rational { return w.resolve(cs, b, nil).BW })
	})
	e.run(len(rest), func(_ *worker, k int) {
		i := rest[k]
		r := out[lead[i]]
		r.Spec = specs[i]
		out[i] = r
		c, _ := e.tally(specs[i].Family(), "")
		c.paths[PathCache].Add(int64(r.Starts))
	})
	return out
}
