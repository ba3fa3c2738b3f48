package core

import (
	"fmt"

	"ivm/internal/modmath"
	"ivm/internal/rat"
	"ivm/internal/stream"
)

// Section IV observes that with six active ports "access conflicts are
// bound to occur since 6·n_c = 24 > 16, i.e., 16 banks are not
// sufficient to support all access requests in parallel". This file
// generalises that counting argument to upper bounds on the aggregate
// effective bandwidth of p concurrent streams. The bounds are exact
// capacity limits (every grant occupies a bank for n_c clocks and a
// per-CPU section path for one clock), so the simulator can never
// exceed them; tests check both the inequality and tightness on the
// paper's example.

// SaturationBound is the coarse port/bank bound for p always-busy
// streams on an m-bank memory with bank busy time n_c:
//
//	b_eff <= min(p, m/n_c).
func SaturationBound(m, nc, p int) rat.Rational {
	checkParams(m, nc)
	if p < 0 {
		panic(fmt.Sprintf("core: negative port count %d", p))
	}
	banks := rat.New(int64(m), int64(nc))
	ports := rat.FromInt(int64(p))
	if ports.Cmp(banks) <= 0 {
		return ports
	}
	return banks
}

// PortsSaturate reports the paper's "conflicts are bound to occur"
// condition: p·n_c > m.
func PortsSaturate(m, nc, p int) bool {
	checkParams(m, nc)
	return p*nc > m
}

// PairBandwidthBounds returns provable lower and upper bounds on the
// cyclic-state bandwidth of the standard pair configuration (two CPUs,
// stream 1 holding fixed priority), valid for EVERY relative start —
// the sandwich the differential sweep tests squeeze the simulator
// into.
//
// Lower bound, 1/n_c: in a clock with no grant every pending request
// is delayed, and — since a simultaneous or section conflict implies a
// same-clock winner — every delay is a bank conflict, i.e. every
// requested bank is busy. A bank granted at t is busy only through
// t+n_c−1, so at most n_c−1 grantless clocks can run back to back;
// infinite streams always have a pending request, hence at least one
// grant every n_c clocks.
//
// Upper bound: the tighter of the §III-A self-conflict bound
// min(1, r1/n_c) + min(1, r2/n_c) (which also subsumes the two-port
// bound) and the bank-capacity bound min(m, r1+r2)/n_c — the two
// streams touch at most r1+r2 distinct banks regardless of their
// starts, and each bank serves one grant per n_c clocks.
func PairBandwidthBounds(m, nc, d1, d2 int) (lo, hi rat.Rational) {
	checkParams(m, nc)
	lo = rat.New(1, int64(nc))
	r1 := ReturnNumber(m, d1)
	r2 := ReturnNumber(m, d2)
	hi = SingleStreamBandwidth(m, nc, d1).Add(SingleStreamBandwidth(m, nc, d2))
	banks := r1 + r2
	if banks > m {
		banks = m
	}
	if capBound := rat.New(int64(banks), int64(nc)); capBound.Cmp(hi) < 0 {
		hi = capBound
	}
	return lo, hi
}

// StreamSet describes one concurrent stream for NewCapacityBound.
type StreamSet struct {
	Stream stream.Stream
	CPU    int
}

// bitsetBanks is the largest bank count whose touched-bank bitset
// CapacityBound.At keeps on the stack.
const bitsetBanks = 256

// A CapacityBound is the tightest of three exact capacity bounds on the
// aggregate steady-state bandwidth of concurrent streams against an
// (m, s, n_c) memory (s = 0 means one section per bank):
//
//  1. the self-conflict bound sum_i min(1, r_i/n_c) of §III-A, which
//     subsumes the port bound of one request per stream per clock;
//  2. the bank-capacity bound |Z_1 ∪ … ∪ Z_p| / n_c: every touched
//     bank serves at most one grant per n_c clocks, which subsumes any
//     per-bank demand bound for the aggregate; and
//  3. the path bound: a CPU with q ports into s sections is granted at
//     most min(q, s) requests per clock.
//
// Its start-free part is worked out once. Only the bank-capacity bound
// depends on where the streams start: the self-conflict and path
// bounds read distances and CPUs alone, and by Theorem 1 stream i's
// access set Z_i is the residue class of its start modulo
// g_i = gcd(m, d_i) = m/r_i, whatever that start is.
type CapacityBound struct {
	m, nc int
	// cosets holds each stream's g_i and startFree the tighter of the
	// self-conflict and path bounds.
	cosets    []int
	startFree rat.Rational
}

// NewCapacityBound builds the capacity bound of the given streams on an
// (m, s, n_c) memory; the streams' starts are ignored, At supplies
// them.
func NewCapacityBound(m, s, nc int, sets []StreamSet) CapacityBound {
	checkParams(m, nc)
	if s == 0 {
		s = m
	}
	if s <= 0 || m%s != 0 {
		panic(fmt.Sprintf("core: sections %d must divide banks %d", s, m))
	}
	c := CapacityBound{m: m, nc: nc, cosets: make([]int, len(sets))}
	self := rat.Zero()
	for i, st := range sets {
		if st.Stream.Banks != m {
			panic(fmt.Sprintf("core: stream %v uses %d banks, system has %d", st.Stream, st.Stream.Banks, m))
		}
		self = self.Add(SingleStreamBandwidth(m, nc, st.Stream.Distance))
		c.cosets[i] = m / ReturnNumber(m, st.Stream.Distance)
	}

	// The path bound tallies each CPU at its first stream.
	pathTotal := 0
next:
	for i, st := range sets {
		for _, prev := range sets[:i] {
			if prev.CPU == st.CPU {
				continue next
			}
		}
		q := 0
		for _, other := range sets[i:] {
			if other.CPU == st.CPU {
				q++
			}
		}
		pathTotal += min(q, s)
	}
	c.startFree = self
	if path := rat.FromInt(int64(pathTotal)); path.Cmp(self) < 0 {
		c.startFree = path
	}
	return c
}

// At returns the bound of the placement whose stream i starts at bank
// starts[i]. It counts the access-set union by walking each coset
// b_i mod g_i, +g_i, … through a bitset of touched banks, and
// allocates nothing for m <= 256.
func (c *CapacityBound) At(starts []int) rat.Rational {
	if len(starts) != len(c.cosets) {
		panic(fmt.Sprintf("core: %d starts for %d streams", len(starts), len(c.cosets)))
	}
	var stack [bitsetBanks / 64]uint64
	words := stack[:]
	if c.m > bitsetBanks {
		words = make([]uint64, (c.m+63)/64)
	}
	touched := 0
	for i, g := range c.cosets {
		for b := modmath.Mod(starts[i], g); b < c.m; b += g {
			if bit := uint64(1) << (b & 63); words[b>>6]&bit == 0 {
				words[b>>6] |= bit
				touched++
			}
		}
	}
	// touched/n_c < Num/Den, cross-multiplied: both denominators are
	// positive and startFree is in lowest terms.
	if int64(touched)*c.startFree.Den < c.startFree.Num*int64(c.nc) {
		return rat.New(int64(touched), int64(c.nc))
	}
	return c.startFree
}
