package skew

import (
	"testing"
	"testing/quick"

	"ivm/internal/memsys"
)

// Every scheme must be a permutation within each row of M consecutive
// addresses (no two addresses of a row share a bank), or banks would be
// over- and under-subscribed.
func TestSchemesPermuteRows(t *testing.T) {
	mappers := []memsys.BankMapper{
		Identity{M: 16},
		Linear{M: 16, S: 1},
		Linear{M: 16, S: 5},
		mustXOR(t, 16, 1),
		mustXOR(t, 16, 5),
		Linear{M: 12, S: 1},
	}
	for _, mp := range mappers {
		m := mp.Banks()
		for row := 0; row < 2*m+3; row++ {
			seen := make(map[int]bool, m)
			for i := 0; i < m; i++ {
				b := mp.Bank(int64(row*m + i))
				if b < 0 || b >= m {
					t.Fatalf("%T: bank %d out of range", mp, b)
				}
				if seen[b] {
					t.Fatalf("%T: row %d maps two addresses to bank %d", mp, row, b)
				}
				seen[b] = true
			}
		}
	}
}

func mustXOR(t *testing.T, m, mult int) XOR {
	t.Helper()
	x, err := NewXOR(m, mult)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestNewXORValidation(t *testing.T) {
	if _, err := NewXOR(12, 1); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewXOR(16, 2); err == nil {
		t.Error("even multiplier accepted")
	}
	if _, err := NewXOR(16, 3); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
}

func TestLinearNegativeAddresses(t *testing.T) {
	l := Linear{M: 16, S: 1}
	f := func(a int32) bool {
		b := l.Bank(int64(a))
		return b >= 0 && b < 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The conclusion's scenario: a stride equal to the bank count is the
// worst case under plain interleaving (all accesses to one bank,
// b_eff = 1/n_c) and runs at full speed under linear skewing.
func TestLinearSkewFixesStrideM(t *testing.T) {
	const m, nc = 16, 4
	plain := StrideBandwidth(Identity{M: m}, nc, m, 4096)
	skewed := StrideBandwidth(Linear{M: m, S: 1}, nc, m, 4096)
	if plain > 0.26 {
		t.Errorf("plain stride-16 bandwidth = %v, want ~1/4", plain)
	}
	if skewed < 0.99 {
		t.Errorf("skewed stride-16 bandwidth = %v, want ~1", skewed)
	}
}

// Under linear skewing with S=1, the effective distance of stride k*m
// becomes k: stride 2*m still halves the bank set, stride m is fully
// spread.
func TestLinearSkewEffectiveDistances(t *testing.T) {
	const m, nc = 16, 4
	b32 := StrideBandwidth(Linear{M: m, S: 1}, nc, 32, 4096) // ~ distance 2: r=8 >= nc
	if b32 < 0.99 {
		t.Errorf("stride 32 under skew: %v, want ~1", b32)
	}
	b128 := StrideBandwidth(Linear{M: m, S: 1}, nc, 128, 4096) // ~ distance 8: r=2 < nc
	if b128 > 0.51 {
		t.Errorf("stride 128 under skew: %v, want ~1/2", b128)
	}
}

// XOR skewing also repairs power-of-two strides.
func TestXORSkewFixesPowerOfTwoStrides(t *testing.T) {
	const m, nc = 16, 4
	x := mustXOR(t, m, 1)
	for _, stride := range []int64{16, 32} {
		bw := StrideBandwidth(x, nc, stride, 4096)
		if bw < 0.99 {
			t.Errorf("stride %d under XOR skew: %v, want ~1", stride, bw)
		}
	}
}

// Skewing must not meaningfully hurt the strides that were already
// fine. Linear skewing keeps unit stride perfectly conflict free; XOR
// skewing pays a small toll at row boundaries (the permutation can
// revisit a recently used bank across the seam), which is a real
// property of the scheme — allow a few percent.
func TestSkewKeepsUnitStrideFast(t *testing.T) {
	const m, nc = 16, 4
	if bw := StrideBandwidth(Linear{M: m, S: 1}, nc, 1, 4096); bw < 0.999 {
		t.Errorf("linear skew: unit stride bandwidth %v", bw)
	}
	if bw := StrideBandwidth(mustXOR(t, m, 1), nc, 1, 4096); bw < 0.95 {
		t.Errorf("XOR skew: unit stride bandwidth %v", bw)
	}
}

// memsys integration: a skewed system accepts the mapper and reports
// its conflicts normally.
func TestSkewWithMemsysSystem(t *testing.T) {
	cfg := memsys.Config{Banks: 16, BankBusy: 4, CPUs: 1}
	sys := memsys.NewWithMapper(cfg, Linear{M: 16, S: 1})
	p := sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 16))
	sys.Run(256)
	if p.Count.Grants != 256 {
		t.Fatalf("grants = %d, want 256 (skew removes the self-conflict)", p.Count.Grants)
	}
}

func TestMapperMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mapper/config mismatch did not panic")
		}
	}()
	memsys.NewWithMapper(memsys.Config{Banks: 8, BankBusy: 1}, Linear{M: 16, S: 1})
}
