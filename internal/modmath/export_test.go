package modmath

// Test-only helpers the production route never calls.

// Canonical returns the canonical form of v under the given units of
// Z_m as a fresh slice; see CanonicalizeInto.
func Canonical(v []int, m int, units []int) []int {
	dst := make([]int, len(v))
	CanonicalizeInto(dst, v, m, units)
	return dst
}

// Divisors returns the positive divisors of n > 0 in increasing order.
func Divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}
