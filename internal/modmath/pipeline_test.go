package modmath

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randVec draws a configuration vector of nd distances and nb starts.
func randVec(rng *rand.Rand, m, nd, nb int) []int {
	v := make([]int, nd+nb)
	for i := range v {
		v[i] = rng.Intn(m)
	}
	return v
}

func TestTranslateNormalForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(15)
		divs := Divisors(m)
		step := divs[rng.Intn(len(divs))]
		tr := Translate{M: m, Step: step}
		nd := 1 + rng.Intn(3)
		v := randVec(rng, m, nd, nd)

		got := append([]int(nil), v...)
		tr.Canonicalize(got, nd)
		if b1 := got[nd]; b1 < 0 || b1 >= step {
			t.Fatalf("m=%d step=%d v=%v: first start %d not in [0,%d)", m, step, v, b1, step)
		}
		// Idempotent.
		again := append([]int(nil), got...)
		tr.Canonicalize(again, nd)
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("m=%d step=%d: not idempotent: %v -> %v", m, step, got, again)
		}
		// Invariant under every allowed translation t ≡ 0 (mod step).
		for sh := 0; sh < m; sh += step {
			w := append([]int(nil), v...)
			for i := nd; i < len(w); i++ {
				w[i] = Mod(w[i]+sh, m)
			}
			tr.Canonicalize(w, nd)
			if !reflect.DeepEqual(w, got) {
				t.Fatalf("m=%d step=%d v=%v shift %d: representative %v != %v", m, step, v, sh, w, got)
			}
		}
	}
}

// With no Renorm stage, UnitMin is exactly the lex-min orbit form of
// CanonicalizeInto.
func TestUnitMinMatchesCanonicalizeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(16)
		units := Units(m)
		nd := 1 + rng.Intn(3)
		v := randVec(rng, m, nd, rng.Intn(3))

		want := Canonical(v, m, units)
		got := append([]int(nil), v...)
		NewUnitMin(m, units, nil).Canonicalize(got, nd)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d v=%v: UnitMin %v != CanonicalizeInto %v", m, v, got, want)
		}
	}
}

// The affine pipeline's form is constant on orbits of the generated
// group {j -> u·j + t} and idempotent — the two properties that make
// it a sound cache key.
func TestAffinePipelineOrbitInvariantAndIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		m := 2 + rng.Intn(15)
		divs := Divisors(m)
		step := divs[rng.Intn(len(divs))]
		var units []int
		if rng.Intn(2) == 0 {
			units = Units(m)
		} else {
			units = UnitsFixing(m, step)
		}
		nd := 1 + rng.Intn(4)
		v := randVec(rng, m, nd, nd)

		pipe := NewAffinePipeline(m, step, units)
		want := append([]int(nil), v...)
		pipe.Canonicalize(want, nd)

		again := append([]int(nil), want...)
		pipe.Canonicalize(again, nd)
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("m=%d step=%d v=%v: not idempotent: %v -> %v", m, step, v, want, again)
		}

		for k := 0; k < 8; k++ {
			u := units[rng.Intn(len(units))]
			sh := step * rng.Intn(m/step)
			w := make([]int, len(v))
			for i := 0; i < nd; i++ {
				w[i] = Mod(u*v[i], m)
			}
			for i := nd; i < len(v); i++ {
				w[i] = Mod(u*v[i]+sh, m)
			}
			pipe.Canonicalize(w, nd)
			if !reflect.DeepEqual(w, want) {
				t.Fatalf("m=%d step=%d v=%v under u=%d t=%d: representative %v != %v",
					m, step, v, u, sh, w, want)
			}
		}
	}
}

// For the vectors the sweep engine's legacy families produce — first
// start pinned to 0, sectionless translation step — the affine
// pipeline reduces to the plain unit-group lex-min of PR 3, so cache
// keys (and hence hit patterns and simulated representatives) carry
// over unchanged.
func TestAffinePipelinePreservesLegacyForms(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(16)
		units := Units(m)
		nd := 2 + rng.Intn(2) // pairs and triples
		v := randVec(rng, m, nd, nd)
		v[nd] = 0 // b1 pinned, as in every legacy sweep loop

		want := Canonical(v, m, units)
		got := append([]int(nil), v...)
		NewAffinePipeline(m, 1, units).Canonicalize(got, nd)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d v=%v: pipeline %v != legacy lex-min %v", m, v, got, want)
		}
	}
}

// Preselection needs a re-normaliser that keeps the reduced distance
// prefix, which a Translate of another modulus does not.
func TestUnitMinRejectsOtherModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUnitMin(12, ..., &Translate{M: 6}) did not panic")
		}
	}()
	NewUnitMin(12, Units(12), &Translate{M: 6})
}

// bruteUnitMin is the oracle the memoised UnitMin is held to: the
// lexicographic minimum of renorm(u·v) over v itself and every unit,
// each scaled candidate re-translated, with no preselection.
func bruteUnitMin(v []int, nd, m int, units []int, renorm Canonicalizer) []int {
	var best []int
	for _, u := range append([]int{1}, units...) {
		cand := make([]int, len(v))
		for i, x := range v {
			cand[i] = Mod(u*Mod(x, m), m)
		}
		if renorm != nil {
			renorm.Canonicalize(cand, nd)
		}
		if best == nil || lexLess(cand, best) {
			best = cand
		}
	}
	return best
}

// One UnitMin and one affine pipeline, reused across interleaved
// vectors whose distance prefixes differ, give the brute-force
// minimum every time: the winning units remembered for one prefix
// never leak into another. The vectors carry unreduced and negative
// coordinates, the prefix runs from empty (nd = 0) to the whole
// vector (nd = len(v)), and the moduli include m = 1.
func TestUnitMinReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 2, 8, 12, 13, 16} {
		for _, step := range Divisors(m) {
			for _, units := range [][]int{Units(m), UnitsFixing(m, step)} {
				tr := Translate{M: m, Step: step}
				stages := map[string]Canonicalizer{
					"unitmin":  NewUnitMin(m, units, &tr),
					"bare":     NewUnitMin(m, units, nil),
					"pipeline": NewAffinePipeline(m, step, units),
				}
				for trial := 0; trial < 60; trial++ {
					n := rng.Intn(4)
					v := make([]int, 2*n+rng.Intn(2))
					for i := range v {
						v[i] = rng.Intn(6*m+1) - 3*m
					}
					nd := []int{0, n, len(v)}[rng.Intn(3)]
					for name, c := range stages {
						want := bruteUnitMin(v, nd, m, units, tr)
						if name == "bare" {
							want = bruteUnitMin(v, nd, m, units, nil)
						}
						got := append([]int(nil), v...)
						c.Canonicalize(got, nd)
						if !slices.Equal(got, want) {
							t.Fatalf("%s m=%d step=%d units=%v v=%v nd=%d: %v, fresh minimum %v",
								name, m, step, units, v, nd, got, want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkUnitMinCanonicalize canonicalises every placement of one
// census-shaped spec in turn through the affine pipeline the sweep
// engine builds, so one op is one placement's canonical form: a
// (13, 4) triple, an (8, 2, 4) 4-stream and a sectioned (16, 4) pair.
func BenchmarkUnitMinCanonicalize(b *testing.B) {
	cases := []struct {
		name      string
		m, step   int
		distances []int
	}{
		{"triple-13", 13, 1, []int{1, 2, 6}},
		{"stream4-8", 8, 1, []int{1, 3, 5, 7}},
		{"section-16s4", 16, 4, []int{1, 3}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pipe := NewAffinePipeline(c.m, c.step, Units(c.m))
			nd := len(c.distances)
			starts := make([]int, nd)
			v := make([]int, 2*nd)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Sweep streams 2..N over [0, m), stream 1 at bank 0.
				for k := 1; k < nd; k++ {
					if starts[k]++; starts[k] < c.m {
						break
					}
					starts[k] = 0
				}
				copy(v, c.distances)
				copy(v[nd:], starts)
				pipe.Canonicalize(v, nd)
			}
		})
	}
}
