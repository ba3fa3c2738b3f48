// Package vector models Fortran array storage the way Section IV of
// the paper sets up its experiments: column-major, 1-based arrays
// packed consecutively into a COMMON block, so that start banks and
// access distances can be computed exactly.
//
// The stride rule is Eq. 33: accessing the (k+1)-th dimension of an
// array with a Fortran increment INC produces the distance
//
//	d = INC * J_0 * J_1 * ... * J_{k-1}  (mod m),   J_0 = 1,
//
// where J_i is the size of the i-th dimension.
package vector

import "fmt"

// Array is a Fortran array placed at a word address. Dims holds the
// declared extents (column-major; the first dimension varies fastest).
type Array struct {
	Name string
	Base int64
	Dims []int
}

// Words returns the array's total size in words.
func (a *Array) Words() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= int64(d)
	}
	return n
}

// Addr returns the word address of the element with the given 1-based
// Fortran subscripts.
func (a *Array) Addr(subs ...int) int64 {
	if len(subs) != len(a.Dims) {
		panic(fmt.Sprintf("vector: %s has %d dimensions, got %d subscripts", a.Name, len(a.Dims), len(subs)))
	}
	off := int64(0)
	mult := int64(1)
	for k, s := range subs {
		if s < 1 || s > a.Dims[k] {
			panic(fmt.Sprintf("vector: %s subscript %d out of bounds [1,%d]", a.Name, s, a.Dims[k]))
		}
		off += int64(s-1) * mult
		mult *= int64(a.Dims[k])
	}
	return a.Base + off
}

// DimStride returns the word distance between consecutive elements
// along dimension k (0-based): the product of the extents of the
// preceding dimensions (J_0 * … * J_{k-1}, with J_0 = 1).
func (a *Array) DimStride(k int) int64 {
	if k < 0 || k >= len(a.Dims) {
		panic(fmt.Sprintf("vector: %s has no dimension %d", a.Name, k))
	}
	mult := int64(1)
	for i := 0; i < k; i++ {
		mult *= int64(a.Dims[i])
	}
	return mult
}

// DiagonalStride returns the word distance between consecutive
// elements of the main diagonal of a 2-D array: J_0 dimension stride
// plus the column stride (1 + J_1-stride).
func (a *Array) DiagonalStride() int64 {
	if len(a.Dims) != 2 {
		panic(fmt.Sprintf("vector: %s is not 2-D", a.Name))
	}
	return 1 + a.DimStride(1)
}

// Distance is Eq. 33: the bank-space distance of a loop with Fortran
// increment inc over dimension k of the array, modulo m banks.
func Distance(inc int, a *Array, k, m int) int {
	d := (int64(inc) * a.DimStride(k)) % int64(m)
	if d < 0 {
		d += int64(m)
	}
	return int(d)
}

// CommonBlock packs arrays consecutively, like a Fortran COMMON block;
// the paper pins relative start banks this way:
//
//	COMMON// A(IDIM), B(IDIM), C(IDIM), D(IDIM)
//
// with IDIM = 16*1024 + 1, so the first elements of the arrays are one
// bank apart on the 16-bank X-MP.
type CommonBlock struct {
	Base int64
	next int64
}

// NewCommonBlock starts a block at the given word address.
func NewCommonBlock(base int64) *CommonBlock {
	return &CommonBlock{Base: base, next: base}
}

// Declare appends an array with the given extents and returns it.
func (cb *CommonBlock) Declare(name string, dims ...int) *Array {
	if len(dims) == 0 {
		panic("vector: array needs at least one dimension")
	}
	a := &Array{Name: name, Base: cb.next, Dims: dims}
	cb.next += a.Words()
	return a
}
