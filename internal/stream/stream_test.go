package stream

import (
	"testing"
	"testing/quick"

	"ivm/internal/modmath"
)

func TestNewNormalises(t *testing.T) {
	s := New(16, 17, -1, 10)
	if s.Start != 1 {
		t.Errorf("Start = %d, want 1", s.Start)
	}
	if s.Distance != 15 {
		t.Errorf("Distance = %d, want 15", s.Distance)
	}
	if s.IsInfinite() {
		t.Error("finite stream reported infinite")
	}
	if !Infinite(16, 0, 1).IsInfinite() {
		t.Error("Infinite stream not infinite")
	}
}

// Bank returns the bank address of the (k+1)-th access request,
// (b + k*d) mod m: the definition the tests hold the stream's
// predicates to.
func (s Stream) Bank(k int) int {
	return modmath.Mod(s.Start+k*s.Distance, s.Banks)
}

func TestBankSequence(t *testing.T) {
	s := Infinite(12, 3, 7)
	want := []int{3, 10, 5, 0, 7, 2, 9, 4, 11, 6, 1, 8, 3}
	for k, w := range want {
		if got := s.Bank(k); got != w {
			t.Errorf("Bank(%d) = %d, want %d", k, got, w)
		}
	}
}

// Theorem 1: r = m/gcd(m, d), table from the paper's running examples.
func TestReturnNumberTheorem1(t *testing.T) {
	cases := []struct{ m, d, want int }{
		{16, 1, 16},
		{16, 2, 8},
		{16, 4, 4},
		{16, 8, 2},
		{16, 16, 1}, // d = 0 mod m
		{16, 6, 8},
		{16, 3, 16},
		{12, 7, 12},
		{13, 6, 13},
		{13, 1, 13},
		{12, 1, 12},
		{12, 0, 1},
		{1, 0, 1},
	}
	for _, c := range cases {
		if got := ReturnNumber(c.m, c.d); got != c.want {
			t.Errorf("ReturnNumber(%d,%d) = %d, want %d", c.m, c.d, got, c.want)
		}
	}
}

// Property: the return number is the index of the first repetition in
// the bank sequence, for every start bank.
func TestReturnNumberIsFirstRepetition(t *testing.T) {
	for m := 1; m <= 24; m++ {
		for d := 0; d < m; d++ {
			s := Infinite(m, d%3, d)
			r := s.ReturnNumber()
			start := s.Bank(0)
			for k := 1; k < r; k++ {
				if s.Bank(k) == start {
					t.Fatalf("m=%d d=%d: returned to start at k=%d < r=%d", m, d, k, r)
				}
			}
			if s.Bank(r) != start {
				t.Fatalf("m=%d d=%d: Bank(r)=%d != start %d", m, d, s.Bank(r), start)
			}
		}
	}
}

func TestAccessSet(t *testing.T) {
	s := Infinite(16, 1, 6) // gcd=2, r=8, banks {1,3,5,...,15}
	set := s.AccessSet()
	if len(set) != 8 {
		t.Fatalf("len(AccessSet) = %d, want 8", len(set))
	}
	for i, b := range set {
		if b != 2*i+1 {
			t.Fatalf("AccessSet = %v, want odd banks", set)
		}
	}
}

func TestAccessSetSizeEqualsReturnNumber(t *testing.T) {
	for m := 1; m <= 20; m++ {
		for d := 0; d < m; d++ {
			for b := 0; b < m; b += 3 {
				s := Infinite(m, b, d)
				if len(s.AccessSet()) != s.ReturnNumber() {
					t.Fatalf("m=%d b=%d d=%d: |Z| != r", m, b, d)
				}
			}
		}
	}
}

func TestSectionSet(t *testing.T) {
	s := Infinite(12, 0, 2) // banks {0,2,4,6,8,10}
	secs := s.SectionSet(2) // all even banks -> section 0
	if len(secs) != 1 || secs[0] != 0 {
		t.Fatalf("SectionSet(2) = %v, want [0]", secs)
	}
	secs = s.SectionSet(3) // banks mod 3: {0,2,1,0,2,1} -> {0,1,2}
	if len(secs) != 3 {
		t.Fatalf("SectionSet(3) = %v, want all three", secs)
	}
	secs = s.SectionSet(4) // even banks mod 4 -> {0, 2}
	if len(secs) != 2 || secs[0] != 0 || secs[1] != 2 {
		t.Fatalf("SectionSet(4) = %v, want [0 2]", secs)
	}
}

func TestSectionSetPanicsOnNonDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SectionSet with s not dividing m did not panic")
		}
	}()
	Infinite(12, 0, 1).SectionSet(5)
}

// Theorem 2 (constructive direction): when gcd(m,d1,d2) = f > 1,
// consecutive start banks give disjoint access sets.
func TestDisjointConstruction(t *testing.T) {
	cases := []struct{ m, d1, d2 int }{
		{16, 2, 4}, {16, 2, 2}, {16, 4, 8}, {12, 2, 4},
		{12, 3, 3}, {12, 6, 3}, {16, 8, 4}, {18, 6, 3},
	}
	for _, c := range cases {
		f := modmath.GCD3(c.m, c.d1, c.d2)
		if f <= 1 {
			t.Fatalf("bad test case %+v: f = %d", c, f)
		}
		a := Infinite(c.m, 0, c.d1)
		b := Infinite(c.m, 1, c.d2)
		if !Disjoint(a, b) {
			t.Errorf("m=%d d1=%d d2=%d b2=1: expected disjoint access sets", c.m, c.d1, c.d2)
		}
	}
}

// Theorem 2 (impossibility direction): when gcd(m,d1,d2) = 1, no choice
// of start banks yields disjoint access sets.
func TestDisjointImpossible(t *testing.T) {
	for m := 2; m <= 16; m++ {
		for d1 := 0; d1 < m; d1++ {
			for d2 := 0; d2 < m; d2++ {
				if modmath.GCD3(m, d1, d2) != 1 {
					continue
				}
				for b2 := 0; b2 < m; b2++ {
					a := Infinite(m, 0, d1)
					b := Infinite(m, b2, d2)
					if Disjoint(a, b) {
						t.Fatalf("m=%d d1=%d d2=%d b2=%d: disjoint despite gcd 1", m, d1, d2, b2)
					}
				}
			}
		}
	}
}

// Disjoint must agree with literally intersecting the access sets.
func TestDisjointMatchesSets(t *testing.T) {
	for m := 1; m <= 14; m++ {
		for d1 := 0; d1 < m; d1++ {
			for d2 := 0; d2 < m; d2++ {
				for b2 := 0; b2 < m; b2++ {
					a := Infinite(m, 0, d1)
					b := Infinite(m, b2, d2)
					inter := intersects(a.AccessSet(), b.AccessSet())
					if got := Disjoint(a, b); got == inter {
						t.Fatalf("m=%d d1=%d d2=%d b2=%d: Disjoint=%v but intersects=%v",
							m, d1, d2, b2, got, inter)
					}
				}
			}
		}
	}
}

func intersects(a, b []int) bool {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return true
		}
	}
	return false
}

func TestSectionsDisjoint(t *testing.T) {
	// m=12, s=2: d1=2 from bank 0 stays in section 0; d2=2 from bank 1
	// stays in section 1.
	a := Infinite(12, 0, 2)
	b := Infinite(12, 1, 2)
	if !SectionsDisjoint(a, b, 2) {
		t.Error("expected disjoint section sets")
	}
	if SectionsDisjoint(a, b, 3) {
		t.Error("expected overlapping section sets for s=3")
	}
}

func TestStringer(t *testing.T) {
	if got := Infinite(16, 1, 6).String(); got != "stream{m=16 b=1 d=6 len=inf}" {
		t.Errorf("String() = %q", got)
	}
	if got := New(16, 1, 6, 64).String(); got != "stream{m=16 b=1 d=6 len=64}" {
		t.Errorf("String() = %q", got)
	}
}

// --- Appendix: isomorphism -------------------------------------------

// The paper's worked examples, m = 16: 1(+)3 = 5(+)15 = 11(+)1 and
// 2(+)3 = 6(+)9 = 6(+)1.
func TestPairIsomorphicPaperExamples(t *testing.T) {
	if !PairIsomorphic(16, 1, 3, 5, 15) {
		t.Error("1(+)3 should be isomorphic to 5(+)15 mod 16")
	}
	if !PairIsomorphic(16, 1, 3, 11, 1) {
		t.Error("1(+)3 should be isomorphic to 11(+)1 mod 16")
	}
	if !PairIsomorphic(16, 2, 3, 6, 9) {
		t.Error("2(+)3 should be isomorphic to 6(+)9 mod 16")
	}
	if !PairIsomorphic(16, 2, 3, 6, 1) {
		t.Error("2(+)3 should be isomorphic to 6(+)1 mod 16")
	}
	if PairIsomorphic(16, 1, 3, 2, 6) {
		t.Error("1(+)3 must not be isomorphic to 2(+)6 (different gcd structure)")
	}
}

// Section IV: INC=6 and INC=11 against the d=1 environment are
// isomorphic to 2(+)3 and 1(+)3 on the 16-bank X-MP.
func TestTriadIsomorphisms(t *testing.T) {
	if !PairIsomorphic(16, 1, 6, 3, 2) {
		t.Error("1(+)6 should be isomorphic to 3(+)2 mod 16")
	}
	if !PairIsomorphic(16, 1, 11, 3, 1) {
		t.Error("1(+)11 should be isomorphic to 3(+)1 mod 16")
	}
}

func TestNormalizeProducesDivisor(t *testing.T) {
	for m := 1; m <= 36; m++ {
		for d1 := 0; d1 < m; d1++ {
			for d2 := 0; d2 < m; d2++ {
				nd1, nd2, k := Normalize(m, d1, d2)
				if !modmath.Coprime(k, m) && m > 1 {
					t.Fatalf("m=%d d1=%d: k=%d not a unit", m, d1, k)
				}
				if nd1 != modmath.Mod(k*d1, m) || nd2 != modmath.Mod(k*d2, m) {
					t.Fatalf("m=%d: transported distances inconsistent", m)
				}
				if d1 != 0 && (nd1 == 0 || m%nd1 != 0) {
					t.Fatalf("m=%d d1=%d: normalised nd1=%d does not divide m", m, d1, nd1)
				}
				// gcd structure is preserved by unit multiplication.
				if modmath.GCD(m, d1) != modmath.GCD(m, nd1) {
					t.Fatalf("m=%d d1=%d: gcd changed under normalisation", m, d1)
				}
				if modmath.GCD(m, d2) != modmath.GCD(m, nd2) {
					t.Fatalf("m=%d d2=%d: gcd changed under normalisation", m, d2)
				}
			}
		}
	}
}

func TestNormalizeFixedPoint(t *testing.T) {
	// d1 already dividing m should stay put (k may be any unit fixing it;
	// we only require nd1 == gcd structure-compatible divisor, and for
	// d1 | m specifically nd1 == d1).
	for _, c := range []struct{ m, d1, d2 int }{{16, 4, 7}, {12, 3, 5}, {13, 1, 6}} {
		nd1, _, _ := Normalize(c.m, c.d1, c.d2)
		if nd1 != c.d1 {
			t.Errorf("m=%d d1=%d: Normalize moved a canonical d1 to %d", c.m, c.d1, nd1)
		}
	}
}

func TestNormalizeIsomorphismProperty(t *testing.T) {
	f := func(mRaw, d1Raw, d2Raw uint8) bool {
		m := int(mRaw%32) + 2
		d1 := int(d1Raw) % m
		d2 := int(d2Raw) % m
		nd1, nd2, _ := Normalize(m, d1, d2)
		return PairIsomorphic(m, d1, d2, nd1, nd2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalPairOrdersByGCD(t *testing.T) {
	nd1, nd2, _, swapped := CanonicalPair(16, 11, 1)
	// gcd(16,11)=1 > ... both gcd 1; no swap required semantics: f1==f2.
	_ = nd2
	if nd1 == 0 {
		t.Fatal("canonical d1 must not be zero for non-zero input")
	}
	if !modmath.Divides(nd1, 16) {
		t.Fatalf("canonical d1 = %d does not divide 16", nd1)
	}
	_ = swapped

	// gcd(16,6)=2, gcd(16,1)=1: stream with d=1 must become stream 1.
	nd1, nd2, _, swapped = CanonicalPair(16, 6, 1)
	if !swapped {
		t.Error("expected swap to put the smaller-gcd stream first")
	}
	if nd1 != 1 {
		t.Errorf("canonical d1 = %d, want 1", nd1)
	}
	if modmath.GCD(16, nd2) != 2 {
		t.Errorf("canonical d2 = %d lost its gcd", nd2)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 0, 1, 1) },
		func() { ReturnNumber(0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDisjointMismatchedBanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bank counts did not panic")
		}
	}()
	Disjoint(Infinite(8, 0, 1), Infinite(16, 0, 1))
}

func TestAccessSetZeroDistance(t *testing.T) {
	if set := Infinite(16, 5, 0).AccessSet(); len(set) != 1 || set[0] != 5 {
		t.Errorf("AccessSet = %v, want only bank 5", set)
	}
}

func TestNormalizePanicsOnBadModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normalize(0,...) did not panic")
		}
	}()
	Normalize(0, 1, 2)
}
