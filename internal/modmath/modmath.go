// Package modmath provides the elementary number theory used throughout
// the analytic model of Oed & Lange (1985): greatest common divisors,
// least common multiples, the extended Euclidean algorithm, modular
// inverses and the units of Z_m.
//
// All functions operate on int and, where meaningful, accept zero
// arguments with the usual conventions (gcd(x, 0) = x), which the paper
// relies on: "Note that gcd(m, 0) = m, i.e., access streams with
// d1 = d2 are conflict free if r1 = r2 >= 2*nc".
package modmath

import "fmt"

// GCD returns the greatest common divisor of a and b. Negative inputs
// are treated by absolute value; GCD(0, 0) == 0.
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GCD3 returns gcd(a, b, c).
func GCD3(a, b, c int) int { return GCD(GCD(a, b), c) }

// LCM returns the least common multiple of a and b; LCM(x, 0) == 0.
func LCM(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	l := a / g * b
	if l < 0 {
		l = -l
	}
	return l
}

// ExtGCD returns (g, x, y) such that a*x + b*y == g == gcd(a, b).
// The signs of x and y follow the classical iterative algorithm.
func ExtGCD(a, b int) (g, x, y int) {
	x0, x1 := 1, 0
	y0, y1 := 0, 1
	for b != 0 {
		q := a / b
		a, b = b, a-q*b
		x0, x1 = x1, x0-q*x1
		y0, y1 = y1, y0-q*y1
	}
	if a < 0 {
		return -a, -x0, -y0
	}
	return a, x0, y0
}

// Mod returns a mod m in the range [0, m). m must be positive.
func Mod(a, m int) int {
	if m <= 0 {
		panic(fmt.Sprintf("modmath: non-positive modulus %d", m))
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Inverse returns the multiplicative inverse of a modulo m and true,
// or 0 and false when gcd(a, m) != 1. m must be positive.
func Inverse(a, m int) (int, bool) {
	if m <= 0 {
		panic(fmt.Sprintf("modmath: non-positive modulus %d", m))
	}
	g, x, _ := ExtGCD(Mod(a, m), m)
	if g != 1 {
		return 0, false
	}
	return Mod(x, m), true
}

// Coprime reports whether gcd(a, b) == 1.
func Coprime(a, b int) bool { return GCD(a, b) == 1 }

// Units returns all k in [1, m) with gcd(k, m) == 1, in increasing
// order. Units(1) returns []int{} because Z_1 has no unit distinct
// from zero in our bank-address setting (m = 1 means a single bank).
func Units(m int) []int {
	if m <= 0 {
		panic(fmt.Sprintf("modmath: non-positive modulus %d", m))
	}
	var us []int
	for k := 1; k < m; k++ {
		if GCD(k, m) == 1 {
			us = append(us, k)
		}
	}
	return us
}

// Divides reports whether a divides b (with Divides(0, 0) == true and
// Divides(0, b) == false for b != 0).
func Divides(a, b int) bool {
	if a == 0 {
		return b == 0
	}
	return b%a == 0
}

// CeilDiv returns ceil(a/b) for b > 0 and a >= 0.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("modmath: CeilDiv by %d", b))
	}
	return (a + b - 1) / b
}
