package memsys

import (
	"fmt"
	"testing"
)

// Tests for the priority-rotation machinery: the parse helpers, the
// rr-cpu arbitration order, and PriorityHolderAt — in particular its
// agreement with the live rotation pointer after Reset (which rewinds
// rr to zero while the clock keeps advancing) and at the boundaries of
// a FindCycle window (rr is part of cycle-state equality, so the holder
// must repeat with the window).

func TestParsePriorityRoundTrip(t *testing.T) {
	for _, pr := range []PriorityRule{FixedPriority, CyclicPriority, RoundRobinPerCPU} {
		got, err := ParsePriority(pr.String())
		if err != nil || got != pr {
			t.Fatalf("ParsePriority(%q) = %v, %v", pr.String(), got, err)
		}
	}
	if _, err := ParsePriority("lifo"); err == nil {
		t.Fatal("ParsePriority accepted an unknown rule")
	}
}

func TestParseMappingRoundTrip(t *testing.T) {
	for _, sm := range []SectionMapping{CyclicSections, ConsecutiveSections} {
		got, err := ParseMapping(sm.String())
		if err != nil || got != sm {
			t.Fatalf("ParseMapping(%q) = %v, %v", sm.String(), got, err)
		}
	}
	if _, err := ParseMapping("skewed"); err == nil {
		t.Fatal("ParseMapping accepted an unknown mapping")
	}
}

func TestValidateRejectsUnknownPolicies(t *testing.T) {
	cfg := Config{Banks: 8, BankBusy: 2, Priority: PriorityRule(9)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown priority rule")
	}
	cfg = Config{Banks: 8, BankBusy: 2, Mapping: SectionMapping(9)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown section mapping")
	}
}

// contendingSystem builds a system in which every port requests bank 0
// every clock with n_c = 1, so the winner of each clock is exactly the
// priority holder of that clock (the bank is free again by the next
// arbitration).
func contendingSystem(prio PriorityRule, cpus int, portCPUs []int) *System {
	sys := New(Config{Banks: 4, BankBusy: 1, CPUs: cpus, Priority: prio})
	for i, cpu := range portCPUs {
		sys.AddPort(cpu, fmt.Sprintf("%d", i+1), NewInfiniteStrided(0, 0))
	}
	return sys
}

// winnerOfClock steps the system once and returns the ID of the port
// that was granted.
func winnerOfClock(t *testing.T, sys *System) int {
	t.Helper()
	var won []int
	rec := listenerFunc(func(e Event) {
		if e.Kind == NoConflict {
			won = append(won, e.Port.ID)
		}
	})
	sys.SetListener(rec)
	defer sys.SetListener(nil)
	if g := sys.Step(); g != 1 {
		t.Fatalf("expected exactly one grant per clock, got %d", g)
	}
	return won[0]
}

type listenerFunc func(Event)

func (f listenerFunc) Observe(e Event) { f(e) }

// TestPriorityHolderAtMatchesArbitration pins PriorityHolderAt against
// the observed winner of an all-ports-contend schedule, for every rule.
func TestPriorityHolderAtMatchesArbitration(t *testing.T) {
	cases := []struct {
		name     string
		prio     PriorityRule
		cpus     int
		portCPUs []int
	}{
		{"fixed", FixedPriority, 2, []int{0, 1}},
		{"cyclic", CyclicPriority, 2, []int{0, 1, 0}},
		{"rr-cpu", RoundRobinPerCPU, 2, []int{0, 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := contendingSystem(tc.prio, tc.cpus, tc.portCPUs)
			for clk := 0; clk < 12; clk++ {
				holder := sys.PriorityHolderAt(sys.Clock())
				if got := winnerOfClock(t, sys); got != holder.ID {
					t.Fatalf("clock %d: holder %d but port %d won", clk, holder.ID, got)
				}
			}
		})
	}
}

// TestPriorityHolderAtAfterReset is the regression test for the rotation
// bug: Reset rewinds rr to zero but does NOT rewind the clock, so any
// holder computed from the clock alone is wrong on a reused system.
func TestPriorityHolderAtAfterReset(t *testing.T) {
	for _, prio := range []PriorityRule{CyclicPriority, RoundRobinPerCPU} {
		t.Run(prio.String(), func(t *testing.T) {
			portCPUs := []int{0, 1, 0}
			if prio == RoundRobinPerCPU {
				portCPUs = []int{0, 0, 1}
			}
			sys := contendingSystem(prio, 2, portCPUs)
			// Advance to a clock that is NOT a multiple of the rotation
			// modulus, so clock-derived and rr-derived holders disagree.
			sys.Run(7)
			sys.Reset()
			for i, cpu := range portCPUs {
				sys.AddPort(cpu, fmt.Sprintf("%d", i+1), NewInfiniteStrided(0, 0))
			}
			// rr was rewound to zero: the first post-Reset clock must be
			// held by the rotation's zero position, and every later clock
			// by the observed winner.
			if h := sys.PriorityHolderAt(sys.Clock()); h.ID != sys.ports[0].ID {
				t.Fatalf("post-Reset holder is port %d, want port 0 (rr rewound)", h.ID)
			}
			for clk := 0; clk < 9; clk++ {
				holder := sys.PriorityHolderAt(sys.Clock())
				if got := winnerOfClock(t, sys); got != holder.ID {
					t.Fatalf("post-Reset clock %d: holder %d but port %d won", clk, holder.ID, got)
				}
			}
		})
	}
}

// TestPriorityHolderAtCycleWindowBoundary checks the property FindCycle
// relies on: the rotation pointer is part of cycle-state equality, so
// the priority holder at the start of the detected window equals the
// holder one full period later — on both kernels, for both rotating
// rules.
func TestPriorityHolderAtCycleWindowBoundary(t *testing.T) {
	for _, prio := range []PriorityRule{CyclicPriority, RoundRobinPerCPU} {
		for _, k := range []Kernel{KernelScalar, KernelPacked} {
			t.Run(fmt.Sprintf("%v/%v", prio, k), func(t *testing.T) {
				sys := New(Config{Banks: 12, Sections: 3, BankBusy: 3, CPUs: 2, Priority: prio})
				sys.SetKernel(k)
				sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
				sys.AddPort(1, "2", NewInfiniteStrided(1, 1))
				cyc, err := sys.FindCycle(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				for off := int64(0); off < 3; off++ {
					a := sys.PriorityHolderAt(cyc.Lead + off)
					b := sys.PriorityHolderAt(cyc.Lead + cyc.Length + off)
					if a != b {
						t.Fatalf("offset %d: holder %d at window start, %d one period later",
							off, a.ID, b.ID)
					}
				}
			})
		}
	}
}

// TestRoundRobinPerCPUOrder pins the rr-cpu arbitration semantics: the
// highest-priority CPU group rotates by one position per clock and
// ports within a group keep ID order.
func TestRoundRobinPerCPUOrder(t *testing.T) {
	sys := contendingSystem(RoundRobinPerCPU, 2, []int{0, 0, 1})
	// Clock 0: group 0 holds -> port 0 wins (port 1 same group, ID order).
	// Clock 1: group 1 holds -> port 2 wins. Clock 2: group 0 again.
	want := []int{0, 2, 0, 2}
	for clk, w := range want {
		if got := winnerOfClock(t, sys); got != w {
			t.Fatalf("clock %d: port %d won, want %d", clk, got, w)
		}
	}
}

// TestRoundRobinCoincidences checks the two degenerate identities: with
// one port per CPU, rr-cpu behaves exactly like cyclic priority; with a
// single CPU it behaves exactly like fixed priority.
func TestRoundRobinCoincidences(t *testing.T) {
	run := func(prio PriorityRule, cpus int, portCPUs []int) []int64 {
		sys := New(Config{Banks: 8, BankBusy: 3, CPUs: cpus, Priority: prio})
		for i, cpu := range portCPUs {
			sys.AddPort(cpu, fmt.Sprintf("%d", i+1), NewInfiniteStrided(int64(i), 2))
		}
		sys.Run(500)
		var grants []int64
		for _, p := range sys.ports {
			grants = append(grants, p.Count.Grants, p.Count.Bank, p.Count.Simultaneous, p.Count.Section)
		}
		return grants
	}
	a := run(RoundRobinPerCPU, 3, []int{0, 1, 2})
	b := run(CyclicPriority, 3, []int{0, 1, 2})
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("rr-cpu with one port per CPU diverged from cyclic:\n%v\n%v", a, b)
	}
	c := run(RoundRobinPerCPU, 1, []int{0, 0, 0})
	d := run(FixedPriority, 1, []int{0, 0, 0})
	if fmt.Sprint(c) != fmt.Sprint(d) {
		t.Fatalf("rr-cpu with one CPU diverged from fixed:\n%v\n%v", c, d)
	}
}
