package core

import (
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/rat"
)

// Eq. 8 exactly characterises zero-conflict runs: simulate every
// (m, nc, d1, d2, b2) of a grid and compare "no delays in the first
// 4·lcm window" against the pointwise criterion.
func TestEq8MatchesZeroConflictRuns(t *testing.T) {
	for _, m := range []int{8, 12, 13} {
		for _, nc := range []int{2, 3} {
			for d1 := 0; d1 < m; d1++ {
				if ReturnNumber(m, d1) < nc {
					continue
				}
				for d2 := 0; d2 < m; d2++ {
					if ReturnNumber(m, d2) < nc {
						continue
					}
					for b2 := 0; b2 < m; b2++ {
						want := PairConflictFreeAt(m, nc, 0, d1, b2, d2)
						sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
						p1 := sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, int64(d1)))
						p2 := sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
						clocks := int64(8*m*nc + 64)
						sys.Run(clocks)
						delays := p1.Count.Delays() + p2.Count.Delays()
						got := delays == 0
						if got != want {
							t.Fatalf("m=%d nc=%d d1=%d d2=%d b2=%d: zero-conflict=%v, Eq. 8 says %v",
								m, nc, d1, d2, b2, got, want)
						}
					}
				}
			}
		}
	}
}

// The proofs' constructed starts satisfy Eq. 8 whenever the governing
// condition holds: b2 = nc*d1 for Theorem 3 pairs.
func TestEq8AtConstructedStarts(t *testing.T) {
	for _, m := range []int{12, 13, 16, 24} {
		for _, nc := range []int{2, 3, 4} {
			for d1 := 0; d1 < m; d1++ {
				if ReturnNumber(m, d1) < nc {
					continue
				}
				for d2 := 0; d2 < m; d2++ {
					if ReturnNumber(m, d2) < nc {
						continue
					}
					if !ConflictFreeCondition(m, nc, d1, d2) {
						continue
					}
					_, b2 := ConflictFreeStarts(m, nc, d1, d2)
					if !PairConflictFreeAt(m, nc, 0, d1, b2, d2) {
						t.Fatalf("m=%d nc=%d d1=%d d2=%d: constructed start b2=%d violates Eq. 8",
							m, nc, d1, d2, b2)
					}
				}
			}
		}
	}
}

// Disjoint access sets trivially satisfy Eq. 8.
func TestEq8DisjointSets(t *testing.T) {
	if !PairConflictFreeAt(16, 4, 0, 2, 1, 4) {
		t.Error("disjoint access sets must be Eq. 8 conflict free")
	}
}

// Fig. 2's starts satisfy Eq. 8; shifting stream 2 by one bank breaks
// it (but synchronisation still recovers b_eff = 2 — the distinction
// the two predicates encode).
func TestEq8Fig2Starts(t *testing.T) {
	if !PairConflictFreeAt(12, 3, 0, 1, 3, 7) {
		t.Error("Fig. 2 starts must satisfy Eq. 8")
	}
	if PairConflictFreeAt(12, 3, 0, 1, 4, 7) {
		t.Error("shifted Fig. 2 starts should collide in free running")
	}
	p := PredictPairAt(12, 3, 0, 1, 4, 7)
	if !p.Exact || !p.Bandwidth.Equal(rat.New(2, 1)) {
		t.Errorf("synchronisation should still pin b_eff = 2: %+v", p)
	}
}

func TestConflictFreeOffsetsCountSymmetry(t *testing.T) {
	// The set of good offsets is non-empty iff some placement is
	// pointwise conflict free; for Fig. 2's parameters it contains the
	// constructed offset 3.
	offs := ConflictFreeOffsets(12, 3, 1, 7)
	found := false
	for _, o := range offs {
		if o == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("offsets %v missing the constructed start 3", offs)
	}
	// A pair failing Theorem 3 with intersecting sets everywhere has no
	// good offsets: m=13 (prime), nc=4, d1=1, d2=2 (gcd(13,1)=1 < 8).
	if offs := ConflictFreeOffsets(13, 4, 1, 2); len(offs) != 0 {
		t.Fatalf("expected no conflict-free offsets, got %v", offs)
	}
}

func TestPredictPairAtRegimes(t *testing.T) {
	// Unique barrier: exact 3/2 whatever the start.
	p := PredictPairAt(16, 4, 0, 1, 5, 2)
	if !p.Exact || !p.Bandwidth.Equal(rat.New(3, 2)) {
		t.Errorf("unique barrier prediction: %+v", p)
	}
	// Self-conflict: not pinned.
	p = PredictPairAt(16, 4, 0, 8, 0, 1)
	if p.Exact {
		t.Errorf("self-conflict pair should not be pinned: %+v", p)
	}
	// Fig. 5 barrier-possible from b2=1 (the inverted case): not pinned.
	p = PredictPairAt(13, 4, 0, 1, 1, 3)
	if p.Exact {
		t.Errorf("start-dependent pair should not be pinned: %+v", p)
	}
}

// Where PredictPairAt pins a bandwidth, the simulator agrees — over a
// full grid.
func TestPredictPairAtMatchesSimulation(t *testing.T) {
	const m, nc = 12, 3
	for d1 := 0; d1 < m; d1++ {
		for d2 := 0; d2 < m; d2++ {
			for b2 := 0; b2 < m; b2++ {
				p := PredictPairAt(m, nc, 0, d1, b2, d2)
				if !p.Exact {
					continue
				}
				sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
				sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, int64(d1)))
				sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
				c, err := sys.FindCycle(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				if !c.EffectiveBandwidth().Equal(p.Bandwidth) {
					t.Fatalf("d1=%d d2=%d b2=%d: predicted %s (%s), sim %s",
						d1, d2, b2, p.Bandwidth, p.Reason, c.EffectiveBandwidth())
				}
			}
		}
	}
}
