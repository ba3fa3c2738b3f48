package sweep

// Fixed-placement resolution: the query path behind internal/serve.
// Where the sweep entry points fold thousands of placements into
// tables, Resolve answers ONE placement — b_eff plus the attribution
// the server returns per response (which path answered, under which
// theorem, via which canonical orbit). The resolution route is
// worker.resolve, the same code the sweeps run, so served answers are
// byte-identical to ivmsweep's.

import (
	"context"
	"fmt"

	"ivm/internal/rat"
)

// Resolution is the engine's answer to one fixed-placement query:
// the effective bandwidth and the provenance of the answer.
type Resolution struct {
	// BW is the placement's effective bandwidth in lowest terms.
	BW rat.Rational
	// Family is the spec's configuration family (ConfigSpec.Family).
	Family string
	// Path is the route that produced the answer: PathAnalytic,
	// PathCache, PathSimScalar or PathSimPacked.
	Path Path
	// Theorem is the gate's theorem/equation identifier
	// ("theorem-2", "theorem-3", "eq-29"); set only on analytic
	// answers.
	Theorem string
	// Canonical is the canonical configuration vector
	// (d_1..d_N, b_1..b_N) that keyed the cache — the placement's
	// orbit representative. Empty on analytic answers (the gate never
	// canonicalises) and when caching is disabled.
	Canonical []int
	// CycleLength and Clocks are the simulated steady state's period
	// and the lead+cycle clocks stepped; set only on simulation.
	CycleLength int64
	Clocks      int64
}

// validateResolve checks one spec for fixed-placement resolution: on
// top of ConfigSpec.Validate, every stream must hold a fixed start
// (no swept streams) with D and B already reduced into [0, m) — the
// range the grid sweeps use, which keeps canonical keys unique (a
// spec at d and one at d+m are the same stream but would key apart).
func validateResolve(spec ConfigSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for j, st := range spec.Streams {
		if st.Sweep {
			return fmt.Errorf("spec: stream %d is swept; resolution answers fixed placements", j+1)
		}
		if st.D < 0 || st.D >= spec.M {
			return fmt.Errorf("spec: stream %d distance %d outside [0, %d)", j+1, st.D, spec.M)
		}
		if st.B < 0 || st.B >= spec.M {
			return fmt.Errorf("spec: stream %d start %d outside [0, %d)", j+1, st.B, spec.M)
		}
	}
	return nil
}

// Resolve answers one fixed-placement spec through the engine's
// answer route — analytic gate, canonical-key cache, then simulation
// — and reports which path resolved it. Unlike the sweep entry
// points, invalid specs return an error instead of panicking: the
// query layer feeds untrusted input.
func (e *Engine) Resolve(spec ConfigSpec) (Resolution, error) {
	return e.ResolveCtx(context.Background(), spec)
}

// ResolveCtx is Resolve with a context: a span sink attached via
// WithSpanSink receives the resolution's phase spans (gate,
// canonicalise, cache-probe, simulate). The context carries only the
// sink — resolution is not cancellable mid-answer.
func (e *Engine) ResolveCtx(ctx context.Context, spec ConfigSpec) (Resolution, error) {
	out, err := e.ResolveBatchCtx(ctx, []ConfigSpec{spec})
	if err != nil {
		return Resolution{}, err
	}
	return out[0], nil
}

// ResolveBatch answers many fixed-placement specs through the worker
// pool, amortising validation, spec compilation and the per-(m, s)
// canonicalisation pipeline across the batch. All specs are validated
// upfront — on any error nothing is resolved. Results are returned in
// input order.
func (e *Engine) ResolveBatch(specs []ConfigSpec) ([]Resolution, error) {
	return e.ResolveBatchCtx(context.Background(), specs)
}

// ResolveBatchCtx is ResolveBatch with a context: a span sink attached
// via WithSpanSink receives every item's phase spans (workers record
// concurrently, so the sink must be concurrency-safe). A sink-free
// context resolves identically to ResolveBatch.
func (e *Engine) ResolveBatchCtx(ctx context.Context, specs []ConfigSpec) ([]Resolution, error) {
	for i, spec := range specs {
		if err := validateResolve(spec); err != nil {
			return nil, fmt.Errorf("sweep: resolve batch item %d: %v", i, err)
		}
	}
	sp := SpanSinkFrom(ctx)
	out := make([]Resolution, len(specs))
	e.run(len(specs), func(w *worker, i int) {
		cs := w.compile(specs[i])
		r := w.resolve(cs, cs.b, sp)
		r.Family = cs.family
		r.Canonical = append([]int(nil), r.Canonical...) // nil stays nil
		out[i] = r
	})
	return out, nil
}
