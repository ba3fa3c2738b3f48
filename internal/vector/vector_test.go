package vector

import "testing"

func TestAddrColumnMajor(t *testing.T) {
	a := &Array{Name: "X", Base: 100, Dims: []int{10, 5}}
	if got := a.Addr(1, 1); got != 100 {
		t.Errorf("Addr(1,1) = %d", got)
	}
	if got := a.Addr(2, 1); got != 101 {
		t.Errorf("Addr(2,1) = %d (first dimension varies fastest)", got)
	}
	if got := a.Addr(1, 2); got != 110 {
		t.Errorf("Addr(1,2) = %d", got)
	}
	if got := a.Addr(10, 5); got != 149 {
		t.Errorf("Addr(10,5) = %d", got)
	}
}

func TestAddrBoundsPanic(t *testing.T) {
	a := &Array{Name: "X", Base: 0, Dims: []int{10}}
	for _, bad := range [][]int{{0}, {11}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Addr(%v) did not panic", bad)
				}
			}()
			a.Addr(bad...)
		}()
	}
}

func TestDimStride(t *testing.T) {
	a := &Array{Name: "X", Dims: []int{7, 11, 13}}
	if got := a.DimStride(0); got != 1 {
		t.Errorf("DimStride(0) = %d", got)
	}
	if got := a.DimStride(1); got != 7 {
		t.Errorf("DimStride(1) = %d", got)
	}
	if got := a.DimStride(2); got != 77 {
		t.Errorf("DimStride(2) = %d", got)
	}
}

func TestDiagonalStride(t *testing.T) {
	a := &Array{Name: "X", Dims: []int{64, 64}}
	if got := a.DiagonalStride(); got != 65 {
		t.Errorf("DiagonalStride = %d", got)
	}
}

// Eq. 33: d = INC * prod(J_i) mod m. The conclusion's advice: accessing
// rows of a 64x64 array on a 16-bank machine gives d = 64 mod 16 = 0 —
// the pathological case — while a 65-wide declaration gives d = 1.
func TestDistanceEq33(t *testing.T) {
	bad := &Array{Name: "BAD", Dims: []int{64, 64}}
	if got := Distance(1, bad, 1, 16); got != 0 {
		t.Errorf("row access distance of 64-wide array = %d, want 0", got)
	}
	good := &Array{Name: "GOOD", Dims: []int{65, 64}}
	if got := Distance(1, good, 1, 16); got != 1 {
		t.Errorf("row access distance of 65-wide array = %d, want 1", got)
	}
	vec := &Array{Name: "V", Dims: []int{1024}}
	for inc := 1; inc <= 16; inc++ {
		if got := Distance(inc, vec, 0, 16); got != inc%16 {
			t.Errorf("Distance(inc=%d) = %d", inc, got)
		}
	}
}

func TestCommonBlockPacking(t *testing.T) {
	// The paper's layout: IDIM = 16*1024+1 places the arrays one bank
	// apart on the 16-bank X-MP.
	const idim = 16*1024 + 1
	cb := NewCommonBlock(0)
	a := cb.Declare("A", idim)
	b := cb.Declare("B", idim)
	c := cb.Declare("C", idim)
	d := cb.Declare("D", idim)
	banks := []int64{a.Base % 16, b.Base % 16, c.Base % 16, d.Base % 16}
	for i, want := range []int64{0, 1, 2, 3} {
		if banks[i] != want {
			t.Fatalf("start banks = %v, want 0,1,2,3", banks)
		}
	}
	if size := cb.next - cb.Base; size != 4*idim {
		t.Errorf("block size = %d", size)
	}
}

func TestCommonBlockMultiDim(t *testing.T) {
	cb := NewCommonBlock(1000)
	m := cb.Declare("M", 8, 8)
	v := cb.Declare("V", 10)
	if m.Base != 1000 || v.Base != 1064 {
		t.Errorf("bases: M=%d V=%d", m.Base, v.Base)
	}
	if m.Words() != 64 {
		t.Errorf("M.Words() = %d", m.Words())
	}
}
