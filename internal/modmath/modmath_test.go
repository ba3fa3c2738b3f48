package modmath

import (
	"testing"
	"testing/quick"
)

func TestGCDBasics(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 5, 5},
		{5, 0, 5},
		{1, 1, 1},
		{12, 18, 6},
		{18, 12, 6},
		{13, 7, 1},
		{16, 64, 16},
		{-12, 18, 6},
		{12, -18, 6},
		{-12, -18, 6},
		{1024, 768, 256},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCD3AndAll(t *testing.T) {
	if got := GCD3(12, 18, 24); got != 6 {
		t.Errorf("GCD3(12,18,24) = %d, want 6", got)
	}
	if got := GCD3(16, 8, 0); got != 8 {
		t.Errorf("GCD3(16,8,0) = %d, want 8", got)
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 5, 0},
		{5, 0, 0},
		{4, 6, 12},
		{13, 7, 91},
		{16, 16, 16},
		{-4, 6, 12},
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b); got != c.want {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestExtGCDIdentity(t *testing.T) {
	f := func(a, b int16) bool {
		ai, bi := int(a), int(b)
		g, x, y := ExtGCD(ai, bi)
		return g == GCD(ai, bi) && ai*x+bi*y == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMod(t *testing.T) {
	cases := []struct{ a, m, want int }{
		{5, 3, 2},
		{-5, 3, 1},
		{-3, 3, 0},
		{0, 7, 0},
		{14, 7, 0},
		{-1, 16, 15},
	}
	for _, c := range cases {
		if got := Mod(c.a, c.m); got != c.want {
			t.Errorf("Mod(%d,%d) = %d, want %d", c.a, c.m, got, c.want)
		}
	}
}

func TestModPanicsOnBadModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mod(1, 0) did not panic")
		}
	}()
	Mod(1, 0)
}

func TestInverse(t *testing.T) {
	for m := 1; m <= 64; m++ {
		for a := 0; a < m; a++ {
			inv, ok := Inverse(a, m)
			if GCD(a, m) == 1 {
				if !ok {
					t.Fatalf("Inverse(%d,%d): expected invertible", a, m)
				}
				if m > 1 && Mod(a*inv, m) != 1 {
					t.Fatalf("Inverse(%d,%d) = %d: a*inv mod m = %d", a, m, inv, Mod(a*inv, m))
				}
			} else if ok {
				t.Fatalf("Inverse(%d,%d): expected non-invertible", a, m)
			}
		}
	}
}

func TestUnits(t *testing.T) {
	got := Units(12)
	want := []int{1, 5, 7, 11}
	if len(got) != len(want) {
		t.Fatalf("Units(12) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Units(12) = %v, want %v", got, want)
		}
	}
	if n := len(Units(16)); n != 8 {
		t.Errorf("phi(16) = %d, want 8", n)
	}
	if n := len(Units(1)); n != 0 {
		t.Errorf("Units(1) has %d elements, want 0", n)
	}
}

func TestDivides(t *testing.T) {
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 0, true},
		{0, 4, false},
		{1, 7, true},
		{4, 16, true},
		{3, 16, false},
	}
	for _, c := range cases {
		if got := Divides(c.a, c.b); got != c.want {
			t.Errorf("Divides(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 4, 0},
		{1, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{1024, 64, 16},
		{1025, 64, 17},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDCommutativeAssociativeProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		ai, bi, ci := int(a), int(b), int(c)
		if GCD(ai, bi) != GCD(bi, ai) {
			return false
		}
		return GCD(GCD(ai, bi), ci) == GCD(ai, GCD(bi, ci))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGCDLCMProduct(t *testing.T) {
	f := func(a, b uint8) bool {
		ai, bi := int(a)+1, int(b)+1 // positive
		return GCD(ai, bi)*LCM(ai, bi) == ai*bi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
