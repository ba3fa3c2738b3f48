package core

// Cross-validation of the section results (Theorems 8, 9 and Eq. 32)
// against the simulator: two ports of the SAME CPU, s | m sections,
// cyclic bank distribution — section conflicts on the shared access
// paths are now possible.

import (
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/modmath"
	"ivm/internal/rat"
	"ivm/internal/stream"
)

func simSectionPair(t *testing.T, m, s, nc, b1, d1, b2, d2 int) memsys.Cycle {
	t.Helper()
	sys := memsys.New(memsys.Config{Banks: m, Sections: s, BankBusy: nc, CPUs: 1})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(int64(b1), int64(d1)))
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
	c, err := sys.FindCycle(1 << 21)
	if err != nil {
		t.Fatalf("m=%d s=%d nc=%d (%d+%d,%d+%d): %v", m, s, nc, b1, d1, b2, d2, err)
	}
	return c
}

// Theorem 8 against simulation. For placements with disjoint access
// sets (bank conflicts impossible):
//
//   - per placement, the extended predictor SectionDisjointSteadyFree
//     must match the simulated cyclic state exactly;
//   - Theorem 8's necessity: with gcd(s, d2-d1) = 1 no placement is
//     ever conflict free;
//   - existence: when the theorem's condition holds and some placement
//     with nondisjoint section sets exists, at least one placement is
//     conflict free.
func TestTheorem8MatchesSimulation(t *testing.T) {
	two := rat.New(2, 1)
	for _, m := range []int{8, 12, 16} {
		for _, s := range divisors(m) {
			if s < 2 || s == m {
				continue
			}
			for _, nc := range []int{2, 3} {
				for d1 := 0; d1 < m; d1++ {
					if ReturnNumber(m, d1) < nc {
						continue
					}
					for d2 := d1; d2 < m; d2++ {
						if ReturnNumber(m, d2) < nc {
							continue
						}
						s1 := stream.Infinite(m, 0, d1)
						anyInteracting, anyFree := false, false
						for b2 := 0; b2 < m; b2++ {
							s2 := stream.Infinite(m, b2, d2)
							if !stream.Disjoint(s1, s2) {
								continue
							}
							if stream.SectionsDisjoint(s1, s2, s) {
								continue // no interaction at all: trivially free
							}
							anyInteracting = true
							c := simSectionPair(t, m, s, nc, 0, d1, b2, d2)
							free := c.EffectiveBandwidth().Equal(two)
							if free {
								anyFree = true
							}
							want := SectionDisjointSteadyFree(s, 0, d1, b2, d2)
							if free != want {
								t.Fatalf("m=%d s=%d nc=%d d1=%d d2=%d b2=%d: sim free=%v, predictor says %v",
									m, s, nc, d1, d2, b2, free, want)
							}
							if free && !SectionDisjointConflictFree(s, d1, d2) {
								t.Fatalf("m=%d s=%d nc=%d d1=%d d2=%d b2=%d: conflict free despite Theorem 8's necessity",
									m, s, nc, d1, d2, b2)
							}
						}
						// Existence: if the theorem's gcd condition holds and the
						// distances admit an escape (d1 not locked to residue 0),
						// some interacting placement must be free.
						if anyInteracting && !anyFree {
							g := modmath.GCD(s, modmath.Mod(d2-d1, s))
							if g == 0 {
								g = s
							}
							if g >= 2 && modmath.Mod(d1, g) != 0 {
								t.Fatalf("m=%d s=%d nc=%d d1=%d d2=%d: no free placement despite favourable gcd",
									m, s, nc, d1, d2)
							}
						}
					}
				}
			}
		}
	}
}

// Fully disjoint section sets never interact: b_eff = 2.
func TestDisjointSectionSetsConflictFree(t *testing.T) {
	two := rat.New(2, 1)
	// m=12, s=2: d=2 streams stay in one section each.
	c := simSectionPair(t, 12, 2, 3, 0, 2, 1, 2)
	if !c.EffectiveBandwidth().Equal(two) {
		t.Fatalf("b_eff = %s, want 2", c.EffectiveBandwidth())
	}
}

// Theorem 9 / Eq. 32 (positive direction): when SectionConflictFree
// reports a start offset, simulating from that offset gives b_eff = 2.
func TestSectionConflictFreeStartsMatchSimulation(t *testing.T) {
	two := rat.New(2, 1)
	checked := 0
	for _, m := range []int{8, 12, 16, 24} {
		for _, s := range divisors(m) {
			if s < 2 || s == m {
				continue
			}
			for _, nc := range []int{2, 3, 4} {
				for d1 := 0; d1 < m; d1++ {
					if ReturnNumber(m, d1) < nc {
						continue
					}
					for d2 := d1; d2 < m; d2++ {
						if ReturnNumber(m, d2) < nc {
							continue
						}
						ok, b2 := SectionConflictFree(m, s, nc, d1, d2)
						if !ok {
							continue
						}
						checked++
						c := simSectionPair(t, m, s, nc, 0, d1, b2, d2)
						if got := c.EffectiveBandwidth(); !got.Equal(two) {
							t.Fatalf("m=%d s=%d nc=%d d1=%d d2=%d b2=%d: b_eff = %s, Theorem 9/Eq.32 promise 2",
								m, s, nc, d1, d2, b2, got)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("sweep exercised no Theorem 9 cases")
	}
}

// Fig. 7's exact construction through the core API.
func TestFig7ThroughCoreAPI(t *testing.T) {
	ok, b2 := SectionConflictFree(12, 2, 2, 1, 1)
	if !ok || b2 != 3 {
		t.Fatalf("SectionConflictFree(12,2,2,1,1) = %v, %d", ok, b2)
	}
	c := simSectionPair(t, 12, 2, 2, 0, 1, b2, 1)
	if !c.EffectiveBandwidth().Equal(rat.New(2, 1)) {
		t.Fatalf("Fig. 7 b_eff = %s", c.EffectiveBandwidth())
	}
	total := memsys.Counters{}
	for _, cc := range c.Conflicts {
		total.Bank += cc.Bank
		total.Simultaneous += cc.Simultaneous
		total.Section += cc.Section
	}
	if total.Bank+total.Simultaneous+total.Section != 0 {
		t.Fatalf("Fig. 7 cycle has conflicts: %+v", total)
	}
}

// With a single CPU, simultaneous bank conflicts are impossible by
// construction (the same-bank case is a section conflict): sweep and
// assert the counter stays zero.
func TestOneCPUNeverSimultaneous(t *testing.T) {
	for _, s := range []int{2, 3, 4} {
		for d1 := 0; d1 < 12; d1++ {
			for b2 := 0; b2 < 3; b2++ {
				sys := memsys.New(memsys.Config{Banks: 12, Sections: s, BankBusy: 3, CPUs: 1})
				p1 := sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, int64(d1)))
				p2 := sys.AddPort(0, "2", memsys.NewInfiniteStrided(int64(b2), 1))
				sys.Run(300)
				for _, p := range []*memsys.Port{p1, p2} {
					if p.Count.Simultaneous != 0 {
						t.Fatalf("s=%d d1=%d b2=%d: simultaneous conflict within one CPU", s, d1, b2)
					}
				}
			}
		}
	}
}

// divisors returns the positive divisors of n > 0 in increasing order.
func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}
