package modmath

import (
	"fmt"
	"sort"
)

// Orbit/canonical-form machinery under the unit group of Z_m.
//
// Renumbering the banks of an m-way interleaved memory by j -> u*j mod m
// for a unit u maps every arithmetic access stream onto another
// arithmetic access stream while preserving bank coincidence, so the
// configuration vectors (distances and start banks) of one orbit
// {u*v mod m : u unit} all share a single steady state (the paper's
// Appendix isomorphism; docs/CACHING.md derives it in full). The sweep
// cache in internal/sweep keys on the canonical — lexicographically
// smallest — member of each orbit, for stride pairs, stride triples and
// section sweeps alike; this file is the one shared implementation.

// UnitsFixing returns the units u of Z_m with u ≡ 1 (mod s), in
// increasing order: the subgroup of units whose bank renumbering
// j -> u*j fixes every section of the cyclic section map k = j mod s
// pointwise (u*j ≡ j mod s). s <= 1 imposes no constraint and returns
// Units(m) — the sectionless case. For s > 1, s must divide m, mirroring
// the memory system's "sections divide banks" invariant.
func UnitsFixing(m, s int) []int {
	if m <= 0 {
		panic(fmt.Sprintf("modmath: non-positive modulus %d", m))
	}
	if s <= 1 {
		return Units(m)
	}
	if m%s != 0 {
		panic(fmt.Sprintf("modmath: sections %d must divide modulus %d", s, m))
	}
	var us []int
	for k := 1; k < m; k++ {
		if GCD(k, m) == 1 && k%s == 1 {
			us = append(us, k)
		}
	}
	return us
}

// CanonicalizeInto writes into dst the canonical form of v under the
// given units of Z_m: the lexicographically smallest vector of the
// orbit {(u*v[0] mod m, ..., u*v[n-1] mod m) : u in units} ∪ {v mod m}.
// dst and v must have the same length and must not alias. The units
// slice is typically Units(m) or UnitsFixing(m, s); v itself (reduced
// mod m) is always a candidate, so an empty units slice — Z_1 has no
// units in our convention — degrades to plain reduction.
func CanonicalizeInto(dst, v []int, m int, units []int) {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("modmath: CanonicalizeInto length mismatch %d != %d", len(dst), len(v)))
	}
	for i := range v {
		dst[i] = Mod(v[i], m)
	}
	for _, u := range units {
		if u == 1 {
			continue
		}
		// Compare u*v to the best-so-far lexicographically, element by
		// element, and copy only when strictly smaller.
		smaller := false
		for i := range v {
			c := Mod(u*Mod(v[i], m), m)
			if c > dst[i] {
				break
			}
			if c < dst[i] {
				smaller = true
				break
			}
		}
		if smaller {
			for i := range v {
				dst[i] = Mod(u*Mod(v[i], m), m)
			}
		}
	}
}

// Orbit enumerates the distinct vectors of v's orbit under the given
// units of Z_m, sorted lexicographically (so Orbit(v)[0] is the
// canonical form). By the orbit–stabiliser theorem its size divides
// len(units) whenever units form a group, which the property tests in
// this package exercise.
func Orbit(v []int, m int, units []int) [][]int {
	seen := make(map[string][]int, len(units)+1)
	add := func(w []int) {
		k := fmt.Sprint(w)
		if _, ok := seen[k]; !ok {
			seen[k] = w
		}
	}
	base := make([]int, len(v))
	for i := range v {
		base[i] = Mod(v[i], m)
	}
	add(base)
	for _, u := range units {
		w := make([]int, len(v))
		for i := range v {
			w[i] = Mod(u*base[i], m)
		}
		add(w)
	}
	out := make([][]int, 0, len(seen))
	for _, w := range seen {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
