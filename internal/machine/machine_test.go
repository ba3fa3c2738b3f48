package machine

import (
	"testing"

	"ivm/internal/memsys"
)

func memCfg16() memsys.Config {
	return memsys.Config{Banks: 16, Sections: 4, BankBusy: 4, CPUs: 2}
}

func newSim(t *testing.T) *Simulation {
	t.Helper()
	return NewSimulation(memCfg16(), 1, DefaultConfig())
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.Normalized()
	if cfg.VectorLength != 64 || cfg.LoadPorts != 2 || cfg.StorePorts != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.ClockNS != 9.5 {
		t.Fatalf("clock: %v", cfg.ClockNS)
	}
	// Partial overrides keep the rest.
	cfg = Config{VectorLength: 32}.Normalized()
	if cfg.VectorLength != 32 || cfg.MemLatency != 14 {
		t.Fatalf("partial override: %+v", cfg)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cfg := DefaultConfig()
	cases := []Instr{
		{Op: OpLoad, Dst: 0, N: 0},                  // zero length
		{Op: OpLoad, Dst: 0, N: 65},                 // exceeds VL
		{Op: OpLoad, Dst: 9, N: 4},                  // register range
		{Op: OpAdd, Dst: 0, Src1: 8, Src2: 1, N: 4}, // src range
		{Op: Op(99), N: 4},                          // unknown op
	}
	for i, in := range cases {
		if err := cfg.Validate([]Instr{in}); err == nil {
			t.Errorf("case %d (%+v): expected error", i, in)
		}
	}
	good := []Instr{{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 64}}
	if err := cfg.Validate(good); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

// A single conflict-free load streams one element per clock: the last
// of N grants lands at clock N-1.
func TestSingleLoadStreamsFullSpeed(t *testing.T) {
	sim := newSim(t)
	sim.CPUs[0].LoadProgram([]Instr{{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 64}})
	clocks, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	if clocks != 63 {
		t.Fatalf("finished at clock %d, want 63", clocks)
	}
	if g := sim.CPUs[0].Ports()[0].Count.Grants; g != 64 {
		t.Fatalf("grants = %d", g)
	}
}

// A self-conflicting stride (r = 2 < n_c = 4) throttles the stream to
// r/n_c: 64 elements at 2 grants per 4 clocks.
func TestSelfConflictingLoadThrottled(t *testing.T) {
	sim := newSim(t)
	sim.CPUs[0].LoadProgram([]Instr{{Op: OpLoad, Dst: 0, Base: 0, Stride: 8, N: 64}})
	clocks, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	// Grants at 0,1, 4,5, 8,9, ...: pair k finishes at 4k+1; last pair
	// k=31 -> clock 125.
	if clocks != 125 {
		t.Fatalf("finished at clock %d, want 125", clocks)
	}
	if b := sim.CPUs[0].Ports()[0].Count.Bank; b == 0 {
		t.Fatal("expected bank conflicts")
	}
}

// Two loads on the two load ports run concurrently; a third load must
// wait for a port (in-order issue).
func TestLoadPortAllocation(t *testing.T) {
	sim := newSim(t)
	cpu := sim.CPUs[0]
	cpu.LoadProgram([]Instr{
		{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 64},
		{Op: OpLoad, Dst: 1, Base: 1, Stride: 1, N: 64},
		{Op: OpLoad, Dst: 2, Base: 2, Stride: 1, N: 64},
	})
	_, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	if cpu.IssuedAt[1] != cpu.IssuedAt[0]+1 {
		t.Fatalf("second load issued at %d, first at %d; want back to back",
			cpu.IssuedAt[1], cpu.IssuedAt[0])
	}
	if cpu.IssuedAt[2] < cpu.IssuedAt[0]+63 {
		t.Fatalf("third load issued at %d; must wait for a free port (~clock 63)",
			cpu.IssuedAt[2])
	}
}

// Flexible chaining: load -> add -> store overlaps; total time is about
// N plus pipeline latencies, far below 3N.
func TestChainingOverlapsLoadAluStore(t *testing.T) {
	sim := newSim(t)
	cfg := sim.CPUs[0].cfg
	sim.CPUs[0].LoadProgram([]Instr{
		{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 64},
		{Op: OpLoad, Dst: 1, Base: 64, Stride: 1, N: 64},
		{Op: OpAdd, Dst: 2, Src1: 0, Src2: 1, N: 64},
		{Op: OpStore, Src1: 2, Base: 128, Stride: 1, N: 64},
	})
	clocks, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	serial := int64(3 * 64)
	chainedBound := int64(64 + cfg.MemLatency + cfg.AddLatency + 16)
	if clocks >= serial {
		t.Fatalf("finished at %d; chaining should beat serial %d", clocks, serial)
	}
	if clocks > chainedBound {
		t.Fatalf("finished at %d; expected <= %d with chaining", clocks, chainedBound)
	}
}

// WAW/WAR hazards: an instruction writing a register still being read
// stalls until the reader finishes.
func TestRegisterHazardStalls(t *testing.T) {
	sim := newSim(t)
	cpu := sim.CPUs[0]
	cpu.LoadProgram([]Instr{
		{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 64},
		{Op: OpStore, Src1: 0, Base: 64, Stride: 1, N: 64},
		// Overwrites V0 while the store reads it: must wait.
		{Op: OpLoad, Dst: 0, Base: 128, Stride: 1, N: 64},
	})
	_, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	if cpu.IssuedAt[2] <= cpu.IssuedAt[1]+10 {
		t.Fatalf("V0 overwrite issued at %d, store at %d: WAR hazard ignored",
			cpu.IssuedAt[2], cpu.IssuedAt[1])
	}
}

// IssueDelay models scalar strip overhead: the next instruction waits.
func TestIssueDelay(t *testing.T) {
	sim := newSim(t)
	cpu := sim.CPUs[0]
	cpu.LoadProgram([]Instr{
		{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 8},
		{Op: OpLoad, Dst: 1, Base: 8, Stride: 1, N: 8, IssueDelay: 20},
	})
	_, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	if got := cpu.IssuedAt[1] - cpu.IssuedAt[0]; got < 21 {
		t.Fatalf("issue gap = %d, want >= 21", got)
	}
}

// The store port only requests elements that have been produced:
// storing a register being loaded trails the load by the memory
// latency, never overtaking it.
func TestStoreChainsToLoad(t *testing.T) {
	sim := newSim(t)
	sim.CPUs[0].LoadProgram([]Instr{
		{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 64},
		{Op: OpStore, Src1: 0, Base: 64, Stride: 1, N: 64},
	})
	clocks, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	cfg := sim.CPUs[0].cfg
	// Element e is storable no earlier than its load grant plus the
	// memory latency, so the run cannot beat 63+MemLatency+1; both
	// streams cover all 16 banks, so their mutual bank conflicts cost
	// a bounded extra (well under fully serial execution).
	lower := int64(63 + cfg.MemLatency + 1)
	serial := int64(63 + cfg.MemLatency + 64)
	if clocks < lower {
		t.Fatalf("finished at %d, store overtook the load (min %d)", clocks, lower)
	}
	if clocks >= serial {
		t.Fatalf("finished at %d, chaining had no effect (serial %d)", clocks, serial)
	}
}

// Two CPUs with disjoint address ranges run without interference.
func TestTwoCPUsIndependent(t *testing.T) {
	sim := NewSimulation(memCfg16(), 2, DefaultConfig())
	// Different banks per CPU: CPU0 uses even banks, CPU1 odd banks,
	// with stride 2 (r = 8 >= nc).
	sim.CPUs[0].LoadProgram([]Instr{{Op: OpLoad, Dst: 0, Base: 0, Stride: 2, N: 64}})
	sim.CPUs[1].LoadProgram([]Instr{{Op: OpLoad, Dst: 0, Base: 1, Stride: 2, N: 64}})
	clocks, done := sim.Run(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	if clocks != 63 {
		t.Fatalf("finished at %d, want 63 (no interference)", clocks)
	}
	for _, c := range sim.CPUs {
		for _, p := range c.Ports() {
			if p.Count.Delays() != 0 && p.Count.Grants > 0 {
				t.Fatalf("port %s delayed: %+v", p.Label, p.Count)
			}
		}
	}
}

// Determinism: the same program produces identical timing on re-run.
func TestDeterminism(t *testing.T) {
	run := func() int64 {
		sim := NewSimulation(memCfg16(), 1, DefaultConfig())
		sim.AddBackgroundStream(0, "bg", 5, 3)
		sim.CPUs[0].LoadProgram([]Instr{
			{Op: OpLoad, Dst: 0, Base: 0, Stride: 1, N: 64},
			{Op: OpLoad, Dst: 1, Base: 64, Stride: 1, N: 64},
			{Op: OpMul, Dst: 2, Src1: 0, Src2: 1, N: 64},
			{Op: OpStore, Src1: 2, Base: 128, Stride: 1, N: 64},
		})
		clocks, done := sim.Run(100_000)
		if !done {
			t.Fatal("did not finish")
		}
		return clocks
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

func TestMicroSeconds(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.MicroSeconds(1000); got != 9.5 {
		t.Fatalf("MicroSeconds(1000) = %v, want 9.5", got)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpLoad: "vload", OpStore: "vstore", OpAdd: "vadd", OpMul: "vmul"} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", int(op), op.String())
		}
	}
}

// LoadProgram resets all state: running the same CPU twice gives the
// same answer.
func TestLoadProgramResets(t *testing.T) {
	sim := newSim(t)
	prog := []Instr{
		{Op: OpLoad, Dst: 0, Base: 0, Stride: 3, N: 64},
		{Op: OpStore, Src1: 0, Base: 100, Stride: 3, N: 64},
	}
	sim.CPUs[0].LoadProgram(prog)
	first, done := sim.Run(100_000)
	if !done {
		t.Fatal("first run did not finish")
	}
	start := sim.Mem.Clock()
	sim.CPUs[0].LoadProgram(prog)
	_, done = sim.Run(start + 100_000)
	if !done {
		t.Fatal("second run did not finish")
	}
	second := sim.CPUs[0].DoneClock() - start
	// Bank state at restart differs slightly; allow a small startup skew.
	if diff := second - first; diff < -8 || diff > 8 {
		t.Fatalf("second run took %d vs %d", second, first)
	}
}
