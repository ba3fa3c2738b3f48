package memsys

import (
	"testing"
	"testing/quick"

	"ivm/internal/rat"
	"ivm/internal/stream"
)

// Property: for any configuration and any two infinite strided streams,
// the simulated cyclic-state bandwidth never exceeds the port count,
// never exceeds bank capacity m/n_c, and each port's bandwidth never
// exceeds its self-conflict ceiling min(1, r/n_c).
func TestPropertyBandwidthCeilings(t *testing.T) {
	f := func(mRaw, ncRaw, d1Raw, d2Raw, b2Raw uint8, twoCPU bool) bool {
		m := int(mRaw%24) + 1
		nc := int(ncRaw%6) + 1
		d1 := int(d1Raw) % m
		d2 := int(d2Raw) % m
		b2 := int(b2Raw) % m
		cpus := 1
		if twoCPU {
			cpus = 2
		}
		sys := New(Config{Banks: m, BankBusy: nc, CPUs: cpus})
		sys.AddPort(0, "1", NewInfiniteStrided(0, int64(d1)))
		sys.AddPort(cpus-1, "2", NewInfiniteStrided(int64(b2), int64(d2)))
		c, err := sys.FindCycle(1 << 22)
		if err != nil {
			return false
		}
		total := c.EffectiveBandwidth()
		if total.Cmp(rat.New(2, 1)) > 0 {
			return false
		}
		if total.Cmp(rat.New(int64(m), int64(nc))) > 0 {
			return false
		}
		for i, d := range []int{d1, d2} {
			r := stream.ReturnNumber(m, d)
			ceil := rat.One()
			if r < nc {
				ceil = rat.New(int64(r), int64(nc))
			}
			if c.PortBandwidth(i).Cmp(ceil) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: grants within a cycle are conserved — the sum of per-port
// grants equals the cycle's total, and per-port grants plus delays plus
// idles account for every clock of the cycle.
func TestPropertyCycleAccounting(t *testing.T) {
	f := func(mRaw, ncRaw, d1Raw, d2Raw uint8) bool {
		m := int(mRaw%16) + 2
		nc := int(ncRaw%4) + 1
		d1 := int(d1Raw) % m
		d2 := int(d2Raw) % m
		sys := New(Config{Banks: m, BankBusy: nc, CPUs: 2})
		sys.AddPort(0, "1", NewInfiniteStrided(0, int64(d1)))
		sys.AddPort(1, "2", NewInfiniteStrided(1, int64(d2)))
		c, err := sys.FindCycle(1 << 22)
		if err != nil {
			return false
		}
		var sum int64
		for _, k := range c.Conflicts {
			sum += k.Grants
			// Each port is busy every clock of the cycle: granted,
			// delayed, or (for infinite streams) never idle.
			if k.Grants+k.Delays()+k.Idle != c.Length {
				return false
			}
			if k.Idle != 0 {
				return false
			}
		}
		return sum == c.TotalGrants()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: renumbering the banks by a unit k (the Appendix
// isomorphism) leaves the cyclic bandwidth unchanged when start banks
// are transported along.
func TestPropertyIsomorphismInvariantBandwidth(t *testing.T) {
	f := func(mRaw, d1Raw, d2Raw, b2Raw, kRaw uint8) bool {
		m := int(mRaw%14) + 2
		nc := 3
		d1 := int(d1Raw) % m
		d2 := int(d2Raw) % m
		b2 := int(b2Raw) % m
		units := unitsOf(m)
		k := units[int(kRaw)%len(units)]

		base := pairBW(m, nc, 0, d1, b2, d2)
		img := pairBW(m, nc, 0, k*d1%m, k*b2%m, k*d2%m)
		return base.Equal(img)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func unitsOf(m int) []int {
	var us []int
	for k := 1; k < m; k++ {
		g := k
		b := m
		for b != 0 {
			g, b = b, g%b
		}
		if g == 1 {
			us = append(us, k)
		}
	}
	if len(us) == 0 {
		us = []int{1}
	}
	return us
}

func pairBW(m, nc, b1, d1, b2, d2 int) rat.Rational {
	sys := New(Config{Banks: m, BankBusy: nc, CPUs: 2})
	sys.AddPort(0, "1", NewInfiniteStrided(int64(b1), int64(d1)))
	sys.AddPort(1, "2", NewInfiniteStrided(int64(b2), int64(d2)))
	c, err := sys.FindCycle(1 << 22)
	if err != nil {
		panic(err)
	}
	return c.EffectiveBandwidth()
}

// Edge cases: one bank, one clock busy time.
func TestDegenerateSystems(t *testing.T) {
	// m=1: every stream hits the single bank; two streams share it.
	sys := New(Config{Banks: 1, BankBusy: 1, CPUs: 2})
	sys.AddPort(0, "1", NewInfiniteStrided(0, 0))
	sys.AddPort(1, "2", NewInfiniteStrided(0, 0))
	c, err := sys.FindCycle(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.EffectiveBandwidth().Equal(rat.One()) {
		t.Fatalf("m=1 nc=1 two streams: b_eff = %s, want 1", c.EffectiveBandwidth())
	}

	// nc=1 never self-conflicts: a single stream always runs at 1.
	for m := 1; m <= 8; m++ {
		for d := 0; d < m; d++ {
			sys := New(Config{Banks: m, BankBusy: 1})
			sys.AddPort(0, "1", NewInfiniteStrided(0, int64(d)))
			c, err := sys.FindCycle(1000)
			if err != nil {
				t.Fatal(err)
			}
			if !c.EffectiveBandwidth().Equal(rat.One()) {
				t.Fatalf("m=%d nc=1 d=%d: b_eff = %s", m, d, c.EffectiveBandwidth())
			}
		}
	}
}

// With m >= p*nc and well-spread unit strides, p streams run at full
// speed (the converse of the saturation argument).
func TestUnsaturatedFullSpeed(t *testing.T) {
	const m, nc, p = 16, 4, 4
	sys := New(Config{Banks: m, BankBusy: nc, CPUs: 2})
	for i := 0; i < p; i++ {
		sys.AddPort(i%2, string(rune('1'+i)), NewInfiniteStrided(int64(i*nc), 1))
	}
	c, err := sys.FindCycle(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	if !c.EffectiveBandwidth().Equal(rat.New(p, 1)) {
		t.Fatalf("b_eff = %s, want %d", c.EffectiveBandwidth(), p)
	}
}
