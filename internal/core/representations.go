package core

import (
	"sort"

	"ivm/internal/modmath"
	"ivm/internal/rat"
)

// Theorems 4–7 are stated for the canonical position d1 | m, d2 > d1,
// reached via the Appendix's isomorphism. A given pair (d1, d2)
// generally has several canonical images (one per role assignment and
// per unit k with k·d ≡ gcd(m, d)), and the theorems give *sufficient*
// conditions per image: the underlying dynamics are invariant under
// bank renumbering, so a barrier established in any image exists in all
// of them. The classifier therefore takes the disjunction over images.
//
// One subtlety is priority-sensitive: Theorem 7's equality case
// (Eq. 28) requires "access stream 1 [the d1-role stream] has higher
// priority over access stream 2", so each image must remember which
// original stream plays the d1 role.

// Rep is one canonical image of a stream pair: D1 | m, D2 > D1.
// Swapped reports that the *second* original stream plays the d1 role.
type Rep struct {
	D1, D2  int
	Swapped bool
}

// Representations returns the distinct canonical images of the pair
// (d1, d2) modulo m, sorted by (D1, D2, role).
func Representations(m, d1, d2 int) []Rep {
	d1, d2 = modmath.Mod(d1, m), modmath.Mod(d2, m)
	seen := make(map[Rep]bool)
	addImages := func(a, b int, swapped bool) {
		if a == 0 {
			return
		}
		fa := modmath.GCD(m, a)
		for _, k := range modmath.Units(m) {
			if modmath.Mod(k*a, m) != fa {
				continue
			}
			img := Rep{D1: fa, D2: modmath.Mod(k*b, m), Swapped: swapped}
			if img.D2 > img.D1 {
				seen[img] = true
			}
		}
	}
	addImages(d1, d2, false)
	addImages(d2, d1, true)
	reps := make([]Rep, 0, len(seen))
	for r := range seen {
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].D1 != reps[j].D1 {
			return reps[i].D1 < reps[j].D1
		}
		if reps[i].D2 != reps[j].D2 {
			return reps[i].D2 < reps[j].D2
		}
		return !reps[i].Swapped && reps[j].Swapped
	})
	return reps
}

// PriorityAssumption states which original stream wins simultaneous
// bank conflicts (a fixed priority rule), enabling Theorem 7's Eq. 28.
// The zero value assumes neither, so the equality case of Eq. 28 is
// never assumed.
type PriorityAssumption int

const (
	// Stream1Priority: the first stream wins ties (e.g. the lower port
	// index under the simulator's fixed priority).
	Stream1Priority PriorityAssumption = iota + 1
	// Stream2Priority: the second stream wins ties.
	Stream2Priority
)

// BarrierVerdict summarises the barrier analysis of a pair across all
// of its canonical representations.
type BarrierVerdict struct {
	// Possible: some representation satisfies Theorem 4 (Eq. 17) —
	// start banks leading to a barrier-situation exist.
	Possible bool
	// Unique: some representation additionally satisfies Theorem 6 or
	// Theorem 7 (incl. Eq. 28 when the priority assumption matches the
	// representation's d1 role): the barrier is reached from every
	// relative start.
	Unique bool
	// Bandwidth is Eq. 29's b_eff = 1 + d1'/d2' evaluated in the
	// witnessing representation (the unique one if any, else the first
	// barrier-possible one). Only meaningful when Possible.
	Bandwidth rat.Rational
	// Witness is the representation that produced the verdict.
	Witness Rep
}

// AnalyzeBarrier runs Theorems 4–7 over every canonical representation
// of the pair and combines the verdicts.
func AnalyzeBarrier(m, nc, d1, d2 int, prio PriorityAssumption) BarrierVerdict {
	var v BarrierVerdict
	for _, rep := range Representations(m, d1, d2) {
		possible, err := BarrierPossible(m, nc, rep.D1, rep.D2)
		if err != nil || !possible {
			continue
		}
		if !v.Possible {
			v.Possible = true
			v.Bandwidth = BarrierBandwidth(rep.D1, rep.D2)
			v.Witness = rep
		}
		// Eq. 28 needs the d1-role stream to hold the fixed priority.
		d1RoleHasPriority := (prio == Stream1Priority && !rep.Swapped) ||
			(prio == Stream2Priority && rep.Swapped)
		unique, _ := UniqueBarrier(m, nc, rep.D1, rep.D2, d1RoleHasPriority)
		if unique && !v.Unique {
			v.Unique = true
			v.Bandwidth = BarrierBandwidth(rep.D1, rep.D2)
			v.Witness = rep
		}
	}
	return v
}
