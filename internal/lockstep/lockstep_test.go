package lockstep

import (
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/rat"
)

// The two independent simulators agree exactly — bandwidth, per-stream
// grants and delay counts per cycle — over full (m, nc, d1, d2, b2)
// grids.
func TestLockstepAgreesWithMemsys(t *testing.T) {
	for _, m := range []int{5, 8, 12, 13} {
		for _, nc := range []int{1, 2, 3, 4, 6} {
			for d1 := 0; d1 < m; d1++ {
				for d2 := 0; d2 < m; d2++ {
					for b2 := 0; b2 < m; b2 += 1 + m/5 {
						ls, err := Run(m, nc, 0, d1, b2, d2, 1<<22)
						if err != nil {
							t.Fatal(err)
						}
						sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
						sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, int64(d1)))
						sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
						c, err := sys.FindCycle(1 << 22)
						if err != nil {
							t.Fatal(err)
						}
						if !rat.New(ls.Grants1+ls.Grants2, ls.Period).Equal(c.EffectiveBandwidth()) {
							t.Fatalf("m=%d nc=%d d1=%d d2=%d b2=%d: lockstep %s, memsys %s",
								m, nc, d1, d2, b2, rat.New(ls.Grants1+ls.Grants2, ls.Period), c.EffectiveBandwidth())
						}
						// Per-stream rates must agree too (scaled to a common
						// period via rationals).
						r1 := rat.New(ls.Grants1, ls.Period)
						r2 := rat.New(ls.Grants2, ls.Period)
						if !r1.Equal(c.PortBandwidth(0)) || !r2.Equal(c.PortBandwidth(1)) {
							t.Fatalf("m=%d nc=%d d1=%d d2=%d b2=%d: per-stream rates differ (%s,%s) vs (%s,%s)",
								m, nc, d1, d2, b2, r1, r2, c.PortBandwidth(0), c.PortBandwidth(1))
						}
						// Delay rates likewise.
						dl1 := rat.New(ls.Delays1, ls.Period)
						dl2 := rat.New(ls.Delays2, ls.Period)
						md1 := rat.New(c.Conflicts[0].Delays(), c.Length)
						md2 := rat.New(c.Conflicts[1].Delays(), c.Length)
						if !dl1.Equal(md1) || !dl2.Equal(md2) {
							t.Fatalf("m=%d nc=%d d1=%d d2=%d b2=%d: delay rates differ (%s,%s) vs (%s,%s)",
								m, nc, d1, d2, b2, dl1, dl2, md1, md2)
						}
					}
				}
			}
		}
	}
}

func TestLockstepPaperFigures(t *testing.T) {
	// Fig. 3: 7/6 barrier.
	r, err := Run(13, 6, 0, 1, 0, 6, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !rat.New(r.Grants1+r.Grants2, r.Period).Equal(rat.New(7, 6)) {
		t.Fatalf("Fig. 3: %s", rat.New(r.Grants1+r.Grants2, r.Period))
	}
	if r.Delays1 != 0 || r.Delays2 == 0 {
		t.Fatalf("Fig. 3 barrier roles: delays %d/%d", r.Delays1, r.Delays2)
	}
	// Fig. 2: conflict-free.
	r, err = Run(12, 3, 0, 1, 3, 7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !rat.New(r.Grants1+r.Grants2, r.Period).Equal(rat.New(2, 1)) || r.Delays1+r.Delays2 != 0 {
		t.Fatalf("Fig. 2: %s with %d delays", rat.New(r.Grants1+r.Grants2, r.Period), r.Delays1+r.Delays2)
	}
	// Fig. 5: 4/3 barrier.
	r, err = Run(13, 4, 0, 1, 7, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !rat.New(r.Grants1+r.Grants2, r.Period).Equal(rat.New(4, 3)) {
		t.Fatalf("Fig. 5: %s", rat.New(r.Grants1+r.Grants2, r.Period))
	}
}

func TestLockstepAccounting(t *testing.T) {
	r, err := Run(16, 4, 0, 1, 0, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Every clock of the period, each stream is either granted or
	// delayed.
	if r.Grants1+r.Delays1 != r.Period || r.Grants2+r.Delays2 != r.Period {
		t.Fatalf("accounting broken: %+v", r)
	}
	if !rat.New(r.Grants1+r.Grants2, r.Period).Equal(rat.New(3, 2)) {
		t.Fatalf("unique barrier 1(+)2: %s", rat.New(r.Grants1+r.Grants2, r.Period))
	}
}

func TestLockstepSingleBank(t *testing.T) {
	r, err := Run(1, 3, 0, 0, 0, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	// Two streams share the single bank: one grant per nc clocks.
	if !rat.New(r.Grants1+r.Grants2, r.Period).Equal(rat.New(1, 3)) {
		t.Fatalf("m=1: %s", rat.New(r.Grants1+r.Grants2, r.Period))
	}
}
