// Package stream models vector-mode access streams as defined in
// Section III of Oed & Lange (1985): a port activated by a single
// vector memory instruction issues equally spaced requests, the i-th
// stream starting at bank b_i and stepping through memory with distance
// d_i, so that the (k+1)-th request goes to bank (b_i + k*d_i) mod m.
//
// A stream is characterised by its start bank, its distance, its return
// number r_i = m / gcd(m, d_i) (Theorem 1) and its access set Z_i (the
// r_i distinct banks it visits).
package stream

import (
	"fmt"
	"sort"

	"ivm/internal/modmath"
)

// Stream describes one vector-mode access stream against an m-way
// interleaved memory. Distance and Start are always reduced modulo
// Banks. Length <= 0 means the stream is infinite (the analytic model's
// assumption 1).
type Stream struct {
	Banks    int // m, the interleaving factor; must be > 0
	Start    int // b, address of the start bank, in [0, m)
	Distance int // d, stepping distance modulo m, in [0, m)
	Length   int // number of elements; <= 0 means infinite
}

// New returns a Stream with start and distance normalised modulo m.
// It panics if m <= 0.
func New(m, start, distance, length int) Stream {
	if m <= 0 {
		panic(fmt.Sprintf("stream: non-positive bank count %d", m))
	}
	return Stream{
		Banks:    m,
		Start:    modmath.Mod(start, m),
		Distance: modmath.Mod(distance, m),
		Length:   length,
	}
}

// Infinite returns an unbounded stream (the analytic model's setting).
func Infinite(m, start, distance int) Stream { return New(m, start, distance, 0) }

// IsInfinite reports whether the stream has no element bound.
func (s Stream) IsInfinite() bool { return s.Length <= 0 }

// ReturnNumber implements Theorem 1: the number of accesses made before
// the same bank is requested again, r = m / gcd(m, d). By the paper's
// convention gcd(m, 0) = m, so a stream with d = 0 has return number 1.
func (s Stream) ReturnNumber() int {
	return ReturnNumber(s.Banks, s.Distance)
}

// ReturnNumber is the free-function form of Theorem 1 for a distance d
// against m banks: r = m / gcd(m, d).
func ReturnNumber(m, d int) int {
	if m <= 0 {
		panic(fmt.Sprintf("stream: non-positive bank count %d", m))
	}
	return m / modmath.GCD(m, modmath.Mod(d, m))
}

// AccessSet returns Z, the set of bank addresses the stream visits, as
// a sorted slice. Its length equals the return number; the elements are
// exactly {b + k*gcd(m,d) mod m}.
func (s Stream) AccessSet() []int {
	r := s.ReturnNumber()
	set := make([]int, 0, r)
	b := s.Start
	for k := 0; k < r; k++ {
		set = append(set, b)
		b = modmath.Mod(b+s.Distance, s.Banks)
	}
	sort.Ints(set)
	return set
}

// SectionSet returns the set of section addresses the stream's access
// set touches under cyclic bank-to-section distribution k = j mod s,
// sorted. s must divide m (the paper's assumption s | m).
func (st Stream) SectionSet(s int) []int {
	if s <= 0 || st.Banks%s != 0 {
		panic(fmt.Sprintf("stream: sections %d must divide banks %d", s, st.Banks))
	}
	seen := make(map[int]bool)
	for _, j := range st.AccessSet() {
		seen[j%s] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Disjoint reports whether the access sets of a and b are disjoint.
// Both streams must use the same number of banks.
func Disjoint(a, b Stream) bool {
	if a.Banks != b.Banks {
		panic(fmt.Sprintf("stream: mismatched bank counts %d vs %d", a.Banks, b.Banks))
	}
	// Z_a = {b_a + k*ga}, Z_b = {b_b + k*gb} with ga = gcd(m, da). They
	// intersect iff (b_b - b_a) is divisible by gcd(ga, gb) modulo m,
	// i.e. iff gcd(ga, gb, m) | (b_b - b_a). Using the set structure is
	// cheaper than materialising both sets.
	m := a.Banks
	ga := modmath.GCD(m, a.Distance)
	gb := modmath.GCD(m, b.Distance)
	g := modmath.GCD3(ga, gb, m)
	return modmath.Mod(b.Start-a.Start, m)%g != 0
}

// SectionsDisjoint reports whether the section sets of a and b under
// cyclic distribution over s sections are disjoint.
func SectionsDisjoint(a, b Stream, s int) bool {
	sa := a.SectionSet(s)
	sb := b.SectionSet(s)
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] == sb[j]:
			return false
		case sa[i] < sb[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// String renders the stream in the paper's b/d notation.
func (s Stream) String() string {
	if s.IsInfinite() {
		return fmt.Sprintf("stream{m=%d b=%d d=%d len=inf}", s.Banks, s.Start, s.Distance)
	}
	return fmt.Sprintf("stream{m=%d b=%d d=%d len=%d}", s.Banks, s.Start, s.Distance, s.Length)
}
