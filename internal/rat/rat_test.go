package rat

import (
	"testing"
	"testing/quick"
)

func TestNewReduces(t *testing.T) {
	cases := []struct {
		num, den, wantN, wantD int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{6, 4, 3, 2},
		{-6, 4, -3, 2},
		{6, -4, -3, 2},
		{-6, -4, 3, 2},
		{0, 5, 0, 1},
		{7, 7, 1, 1},
	}
	for _, c := range cases {
		r := New(c.num, c.den)
		if r.Num != c.wantN || r.Den != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.num, c.den, r.Num, r.Den, c.wantN, c.wantD)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestArithmetic(t *testing.T) {
	if got := New(1, 2).Add(New(1, 3)); !got.Equal(New(5, 6)) {
		t.Errorf("1/2 + 1/3 = %s", got)
	}
	if got := New(1, 2).Add(New(-1, 3)); !got.Equal(New(1, 6)) {
		t.Errorf("1/2 + -1/3 = %s", got)
	}
	if got := One().Add(New(1, 6)); !got.Equal(New(7, 6)) {
		t.Errorf("Eq. 29 for d1=1, d2=6: %s", got)
	}
}

func TestCmp(t *testing.T) {
	if New(1, 2).Cmp(New(2, 3)) != -1 {
		t.Error("1/2 < 2/3")
	}
	if New(3, 2).Cmp(New(3, 2)) != 0 {
		t.Error("3/2 == 3/2")
	}
	if New(7, 6).Cmp(One()) != 1 {
		t.Error("7/6 > 1")
	}
	if New(-1, 2).Cmp(Zero()) != -1 {
		t.Error("-1/2 < 0")
	}
}

func TestStringAndFloat(t *testing.T) {
	if got := New(3, 2).String(); got != "3/2" {
		t.Errorf("String() = %q", got)
	}
	if got := New(4, 2).String(); got != "2" {
		t.Errorf("String() = %q", got)
	}
	if got := FromInt(7).String(); got != "7" {
		t.Errorf("String() = %q", got)
	}
	if got := New(1, 2).Float(); got != 0.5 {
		t.Errorf("Float() = %v", got)
	}
}

func TestZeroValueBehaves(t *testing.T) {
	var r Rational // zero value: 0/0 struct, semantically 0
	if r.Float() != 0 {
		t.Error("zero value Float")
	}
	if r.String() != "0" {
		t.Errorf("zero value String = %q", r.String())
	}
	if !r.Equal(Zero()) {
		t.Error("zero value Equal")
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b int8, c, d uint8) bool {
		x := New(int64(a), int64(c)+1)
		y := New(int64(b), int64(d)+1)
		return x.Add(y).Equal(y.Add(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubInverseProperty(t *testing.T) {
	f := func(a, b int8, c, d uint8) bool {
		x := New(int64(a), int64(c)+1)
		y := New(int64(b), int64(d)+1)
		return x.Add(y).Add(New(-y.Num, y.Den)).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// reducingCmp is Cmp as it was before the cross-multiplying fast path:
// both operands reduced to lowest terms first.
func reducingCmp(r, o Rational) int {
	rr, oo := r.reduced(), o.reduced()
	lhs, rhs := rr.Num*oo.Den, oo.Num*rr.Den
	switch {
	case lhs < rhs:
		return -1
	case lhs > rhs:
		return 1
	}
	return 0
}

// Cmp and Equal cross-multiply the stored terms when both denominators
// are positive and reduce only otherwise; either way they must order
// like the reducing form, on reduced values, unreduced and
// negative-denominator literals, and the zero value.
func TestCmpMatchesReducingForm(t *testing.T) {
	literal := func(num int8, den int8, scale uint8) Rational {
		k := int64(scale%5) + 1 // scale 1..5 leaves the literal unreduced
		return Rational{Num: int64(num) * k, Den: int64(den) * k}
	}
	f := func(a, b, c, d int8, s1, s2 uint8, zero uint8) bool {
		x, y := literal(a, b, s1), literal(c, d, s2)
		switch zero % 4 {
		case 1:
			x = Rational{}
		case 2:
			y = Rational{}
		}
		want := reducingCmp(x, y)
		return x.Cmp(y) == want && y.Cmp(x) == -want && x.Equal(y) == (want == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	for _, c := range []struct {
		x, y Rational
		want int
	}{
		{Rational{2, 4}, New(1, 2), 0},
		{Rational{1, -2}, New(-1, 2), 0},
		{Rational{-3, -6}, New(1, 2), 0},
		{Rational{}, Zero(), 0},
		{Rational{5, 0}, Zero(), 0},
		{Rational{}, Rational{-1, 3}, 1},
		{Rational{4, -6}, Rational{-1, 2}, -1},
	} {
		if got := c.x.Cmp(c.y); got != c.want || got != reducingCmp(c.x, c.y) {
			t.Errorf("%+v.Cmp(%+v) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}
