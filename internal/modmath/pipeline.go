package modmath

import "fmt"

// Composable canonicalisation pipeline over configuration vectors.
//
// A configuration vector packs an N-stream memory configuration as nd
// stride distances followed by start banks: (d_1 … d_nd, b_1 … b_N).
// Two group actions on Z_m map such configurations onto isomorphic
// ones (bank renumberings that commute with every conflict rule of the
// simulator; docs/CACHING.md has the derivations):
//
//   - scaling j -> u·j by a unit u of Z_m, which multiplies every
//     distance and start — restricted to the section-fixing subgroup
//     u ≡ 1 (mod s) when the arbitration is not known to be
//     section-symmetric;
//   - translation j -> j + t, which shifts every start and fixes every
//     distance — allowed only for t ≡ 0 (mod s) on a sectioned memory,
//     because the section of bank j is j mod s.
//
// The two do not commute (u·(j+t) = u·j + u·t), so a canonical form
// for the generated group cannot simply apply one normal form after
// the other: scaling moves a translation-normalised start block out of
// normal form, by an allowed translation. UnitMin therefore
// re-normalises every scaled candidate through its Renorm stage before
// comparing. NewAffinePipeline composes the two correctly; the
// property tests in this package verify orbit-invariance and
// idempotence of the composition.

// A Canonicalizer rewrites a configuration vector in place to a
// distinguished representative of its orbit under the group action it
// implements. nd is the number of leading distance coordinates; the
// remainder of the vector are start banks. Implementations must be
// idempotent and must leave every coordinate reduced to [0, m).
type Canonicalizer interface {
	Canonicalize(v []int, nd int)
}

// Translate is the translation-orbit normaliser of an m-bank memory:
// it shifts the start block so the first start lands in [0, Step),
// fixing the unique representative of {(b_1+t, …, b_N+t) : t ≡ 0 mod
// Step} and reducing every coordinate mod M. Step is the section count
// s of a sectioned memory — translations by multiples of s are exactly
// the ones preserving the k = j mod s section map — and 1 (or 0) for a
// sectionless memory, where every translation is allowed and the first
// start normalises to 0. Step must divide M so that the shifts form a
// subgroup of Z_M.
type Translate struct {
	M, Step int
}

// Canonicalize implements Canonicalizer.
func (t Translate) Canonicalize(v []int, nd int) {
	if t.M <= 0 {
		panic(fmt.Sprintf("modmath: non-positive modulus %d", t.M))
	}
	step := t.Step
	if step <= 1 {
		step = 1
	}
	if t.M%step != 0 {
		panic(fmt.Sprintf("modmath: translation step %d must divide modulus %d", step, t.M))
	}
	for i := 0; i < nd && i < len(v); i++ {
		v[i] = Mod(v[i], t.M)
	}
	if nd >= len(v) {
		return
	}
	starts := v[nd:]
	b1 := Mod(starts[0], t.M)
	shift := b1 - b1%step
	for i := range starts {
		starts[i] = Mod(starts[i]-shift, t.M)
	}
}

// UnitMin minimises a configuration vector over the scaling action of
// the given units of Z_m: the result is the lexicographically smallest
// of the candidates {renorm(u·v) : u in units} ∪ {renorm(v)}, where
// renorm is the optional Translate normaliser of the same modulus (see
// the package comment for why each scaled candidate must be
// re-normalised before comparison). With a nil renorm and the
// identity-containing unit groups produced by Units/UnitsFixing this
// coincides with CanonicalizeInto.
//
// Translate never moves a distance, so the distance prefix of
// renorm(u·v) is u·d mod m whatever the starts are, and a candidate
// whose scaled prefix is above the minimal one can never be the
// lexicographic minimum. UnitMin therefore works out, once per
// distinct reduced distance prefix, the units that attain the minimal
// prefix (usually one), remembers them for the last prefix it saw,
// and scales and re-normalises only under those.
//
// The zero UnitMin is not usable; construct with NewUnitMin. Not safe
// for concurrent use (it carries scratch buffers and the memo); give
// each goroutine its own.
type UnitMin struct {
	m      int
	units  []int
	renorm *Translate

	// winners are the candidate units (1 standing for v itself) whose
	// scaled distance prefix is the minimal one for the reduced prefix
	// held in prefix; empty until the first call.
	prefix, winners []int

	cand, best []int
}

// NewUnitMin builds the scaling-orbit minimiser for modulus m over the
// given units (typically Units(m) or UnitsFixing(m, s)), re-normalising
// every candidate through renorm when it is non-nil. renorm must be of
// modulus m, so that it leaves a reduced distance prefix as it is.
func NewUnitMin(m int, units []int, renorm *Translate) *UnitMin {
	if m <= 0 {
		panic(fmt.Sprintf("modmath: non-positive modulus %d", m))
	}
	if renorm != nil && renorm.M != m {
		panic(fmt.Sprintf("modmath: renorm modulus %d differs from %d", renorm.M, m))
	}
	return &UnitMin{m: m, units: units, renorm: renorm}
}

// Canonicalize implements Canonicalizer.
func (u *UnitMin) Canonicalize(v []int, nd int) {
	nd = min(nd, len(v))
	winners := u.winnersFor(v[:nd])
	if len(winners) == 1 {
		u.scale(v, v, winners[0], nd)
		return
	}
	u.best = append(u.best[:0], v...)
	u.cand = append(u.cand[:0], v...)
	for i, unit := range winners {
		u.scale(u.cand, v, unit, nd)
		if i == 0 || lexLess(u.cand, u.best) {
			u.best, u.cand = u.cand, u.best
		}
	}
	copy(v, u.best)
}

// scale writes renorm(unit·v), every coordinate reduced mod m, into
// dst, which may be v itself.
func (u *UnitMin) scale(dst, v []int, unit, nd int) {
	for i, x := range v {
		dst[i] = Mod(unit*Mod(x, u.m), u.m)
	}
	if u.renorm != nil {
		u.renorm.Canonicalize(dst, nd)
	}
}

// winnersFor returns the candidate units that can attain the minimum
// for distance prefix d, working them out only when the reduced prefix
// differs from the one of the last call.
func (u *UnitMin) winnersFor(d []int) []int {
	same := len(u.winners) > 0 && len(d) == len(u.prefix)
	for i := 0; same && i < len(d); i++ {
		same = Mod(d[i], u.m) == u.prefix[i]
	}
	if same {
		return u.winners
	}
	u.prefix = u.prefix[:0]
	for _, x := range d {
		u.prefix = append(u.prefix, Mod(x, u.m))
	}
	u.winners = append(u.winners[:0], 1)
	u.best = append(u.best[:0], u.prefix...)
	for _, unit := range u.units {
		if unit == 1 {
			continue
		}
		u.cand = u.cand[:0]
		for _, x := range u.prefix {
			u.cand = append(u.cand, Mod(unit*x, u.m))
		}
		switch {
		case lexLess(u.cand, u.best):
			u.winners = append(u.winners[:0], unit)
			copy(u.best, u.cand)
		case !lexLess(u.best, u.cand):
			u.winners = append(u.winners, unit)
		}
	}
	return u.winners
}

// lexLess reports a < b lexicographically; the slices must have equal
// length.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Pipeline applies its stages in order; it is itself a Canonicalizer.
// Composing stages is only a true canonical form for the generated
// group when later stages preserve (or re-establish, via UnitMin's
// Renorm) the normal forms of earlier ones — NewAffinePipeline builds
// the composition this package guarantees correct.
type Pipeline []Canonicalizer

// Canonicalize implements Canonicalizer.
func (p Pipeline) Canonicalize(v []int, nd int) {
	for _, c := range p {
		c.Canonicalize(v, nd)
	}
}

// NewAffinePipeline composes the canonical form of the full
// translation-and-scaling group of an m-bank memory: translation
// normalisation by multiples of step, then scaling minimisation over
// the given units with per-candidate re-normalisation. step is the
// section count for a sectioned memory and 1 otherwise; units is
// Units(m) or UnitsFixing(m, s) per the caller's soundness argument.
// The result is constant on orbits of the whole group {j -> u·j + t}
// (u in units ∪ {1} closed under composition, t ≡ 0 mod step) and
// idempotent.
func NewAffinePipeline(m, step int, units []int) Pipeline {
	tr := Translate{M: m, Step: step}
	return Pipeline{tr, NewUnitMin(m, units, &tr)}
}
