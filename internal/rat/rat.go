// Package rat provides small exact rationals for effective-bandwidth
// values. The paper reports bandwidths such as b_eff = 3/2 (Fig. 8a) or
// b_eff = 1 + d1/d2 (Eq. 29); cycle detection in the simulator yields
// these exactly as (grants in cycle)/(cycle length), and keeping them
// as rationals lets tests compare analytic and simulated bandwidths
// without floating-point tolerance.
package rat

import "strconv"

// Rational is an exact fraction Num/Den, always stored in lowest terms
// with Den > 0. The zero value is 0/1.
type Rational struct {
	Num, Den int64
}

// New returns num/den reduced to lowest terms. It panics if den == 0.
func New(num, den int64) Rational {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd64(abs64(num), den)
	if g == 0 {
		return Rational{0, 1}
	}
	return Rational{num / g, den / g}
}

// FromInt returns n/1.
func FromInt(n int64) Rational { return Rational{n, 1} }

// Zero returns 0/1.
func Zero() Rational { return Rational{0, 1} }

// One returns 1/1.
func One() Rational { return Rational{1, 1} }

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Float returns the value as a float64.
func (r Rational) Float() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// Equal reports exact equality. Like Cmp it cross-multiplies the
// stored terms when both denominators are positive.
func (r Rational) Equal(o Rational) bool { return r.Cmp(o) == 0 }

func (r Rational) reduced() Rational {
	if r.Den == 0 {
		return Rational{0, 1}
	}
	return New(r.Num, r.Den)
}

// Cmp returns -1, 0, or +1 as r is less than, equal to, or greater
// than o. With both denominators positive, as every constructor leaves
// them, the stored terms are cross-multiplied as they are: the sign of
// a/b - c/d is that of ad - cb whether or not the fractions are in
// lowest terms. Only the zero value and hand-built literals with a
// non-positive denominator are reduced first.
func (r Rational) Cmp(o Rational) int {
	if r.Den <= 0 || o.Den <= 0 {
		r, o = r.reduced(), o.reduced()
	}
	lhs := r.Num * o.Den
	rhs := o.Num * r.Den
	switch {
	case lhs < rhs:
		return -1
	case lhs > rhs:
		return 1
	default:
		return 0
	}
}

// Add returns r + o.
func (r Rational) Add(o Rational) Rational {
	rr, oo := r.reduced(), o.reduced()
	return New(rr.Num*oo.Den+oo.Num*rr.Den, rr.Den*oo.Den)
}

// String renders "n" for integers and "n/d" otherwise.
func (r Rational) String() string {
	var buf [41]byte // two int64s and the slash
	return string(r.Append(buf[:0]))
}

// Append appends String's rendering to dst, for encoders that build a
// response in one buffer.
func (r Rational) Append(dst []byte) []byte {
	rr := r.reduced()
	dst = strconv.AppendInt(dst, rr.Num, 10)
	if rr.Den == 1 {
		return dst
	}
	return strconv.AppendInt(append(dst, '/'), rr.Den, 10)
}
