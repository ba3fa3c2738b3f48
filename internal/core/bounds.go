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

// StreamSet describes one concurrent stream for MultiStreamBound.
type StreamSet struct {
	Stream stream.Stream
	CPU    int
}

// bitsetBanks is the largest bank count whose touched-bank bitset
// MultiStreamBound keeps on the stack.
const bitsetBanks = 256

// MultiStreamBound returns the tightest of three exact capacity bounds
// on the aggregate steady-state bandwidth of the given streams against
// an (m, s, n_c) memory (s = 0 means one section per bank):
//
//  1. the self-conflict bound sum_i min(1, r_i/n_c) of §III-A, which
//     subsumes the port bound of one request per stream per clock;
//  2. the bank-capacity bound |Z_1 ∪ … ∪ Z_p| / n_c: every touched
//     bank serves at most one grant per n_c clocks, which subsumes any
//     per-bank demand bound for the aggregate; and
//  3. the path bound: a CPU with q ports into s sections is granted at
//     most min(q, s) requests per clock.
//
// By Theorem 1 a stream's access set Z_i is the residue class of its
// start modulo g_i = gcd(m, d_i) = m/r_i, so the union is counted by
// walking each coset b_i mod g_i, +g_i, … through a bitset of touched
// banks. The function allocates nothing for m <= 256.
func MultiStreamBound(m, s, nc int, sets []StreamSet) rat.Rational {
	checkParams(m, nc)
	if s == 0 {
		s = m
	}
	if s <= 0 || m%s != 0 {
		panic(fmt.Sprintf("core: sections %d must divide banks %d", s, m))
	}

	var stack [bitsetBanks / 64]uint64
	words := stack[:]
	if m > bitsetBanks {
		words = make([]uint64, (m+63)/64)
	}
	selfBound := rat.Zero()
	touched := 0
	for _, st := range sets {
		if st.Stream.Banks != m {
			panic(fmt.Sprintf("core: stream %v uses %d banks, system has %d", st.Stream, st.Stream.Banks, m))
		}
		selfBound = selfBound.Add(SingleStreamBandwidth(m, nc, st.Stream.Distance))
		g := m / ReturnNumber(m, st.Stream.Distance)
		for b := modmath.Mod(st.Stream.Start, g); b < m; b += g {
			if bit := uint64(1) << (b & 63); words[b>>6]&bit == 0 {
				words[b>>6] |= bit
				touched++
			}
		}
	}
	bankBound := rat.New(int64(touched), int64(nc))

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
	pathBound := rat.FromInt(int64(pathTotal))

	best := selfBound
	if bankBound.Cmp(best) < 0 {
		best = bankBound
	}
	if pathBound.Cmp(best) < 0 {
		best = pathBound
	}
	return best
}
