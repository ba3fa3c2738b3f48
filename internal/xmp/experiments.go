package xmp

import (
	"fmt"

	"ivm/internal/machine"
	"ivm/internal/memsys"
	"ivm/internal/skew"
	"ivm/internal/vector"
	"ivm/internal/workload"
)

// This file contains the experiments beyond Fig. 10 that the paper's
// discussion motivates:
//
//   - the conclusion's multitasking recommendation ("In order to build
//     an environment with uniform access streams it may be worthwhile
//     to consider the multitasking option"): split the triad across
//     both CPUs so that the competing streams have identical distances;
//   - the conclusion's skewing recommendation, applied to the full
//     machine model rather than a single stream;
//   - stride sweeps of the other elementary kernels (copy, vector add,
//     axpy), the kind of tables the companion paper [10] reports.

// MultitaskResult compares running 2n triad elements on one CPU against
// splitting them n/n across both CPUs (uniform access environment).
type MultitaskResult struct {
	INC          int
	SingleClocks int64 // one CPU does all 2n elements; other CPU idle
	SplitClocks  int64 // both CPUs do n elements each, concurrently
	Speedup      float64
}

// MultitaskTriad runs the comparison for one increment. The split
// halves work on the same arrays, the second CPU starting at element
// n*inc + 1 (the upper half of the index space).
func MultitaskTriad(inc, n int, cfg machine.Config) MultitaskResult {
	cfg = cfg.Normalized()

	build := func() (*machine.Simulation, *vector.Array, *vector.Array, *vector.Array, *vector.Array) {
		sim := machine.NewSimulation(MemConfig(), 2, cfg)
		cb := vector.NewCommonBlock(0)
		a := cb.Declare("A", 2*IDim)
		b := cb.Declare("B", 2*IDim)
		c := cb.Declare("C", 2*IDim)
		d := cb.Declare("D", 2*IDim)
		return sim, a, b, c, d
	}

	// Single CPU, 2n elements.
	sim, a, b, c, d := build()
	sim.CPUs[0].LoadProgram(workload.Triad(a, b, c, d, 2*n, inc, cfg))
	single, done := sim.Run(int64(2*n) * int64(inc) * 1000)
	if !done {
		panic(fmt.Sprintf("xmp: single-CPU triad INC=%d did not finish", inc))
	}

	// Both CPUs, n elements each: CPU 1 works on the upper half of the
	// index space (a multitasked DO loop split at the midpoint).
	sim, a, b, c, d = build()
	lower := workload.Triad(a, b, c, d, n, inc, cfg)
	upper := workload.TriadAt(a, b, c, d, n, inc, n, cfg)
	sim.CPUs[0].LoadProgram(lower)
	sim.CPUs[1].LoadProgram(upper)
	split, done := sim.Run(int64(n) * int64(inc) * 2000)
	if !done {
		panic(fmt.Sprintf("xmp: multitask triad INC=%d did not finish", inc))
	}

	return MultitaskResult{
		INC:          inc,
		SingleClocks: single,
		SplitClocks:  split,
		Speedup:      float64(single) / float64(split),
	}
}

// MultitaskSweep runs MultitaskTriad for INC = 1..maxInc.
func MultitaskSweep(maxInc, n int, cfg machine.Config) []MultitaskResult {
	out := make([]MultitaskResult, 0, maxInc)
	for inc := 1; inc <= maxInc; inc++ {
		out = append(out, MultitaskTriad(inc, n, cfg))
	}
	return out
}

// SkewedTriadExperiment runs the triad (busy environment, as in
// Fig. 10a) against a memory with the given bank mapper instead of
// plain modulo interleaving — the conclusion's skewing remedy measured
// on the full machine model.
func SkewedTriadExperiment(inc, n int, mapper memsys.BankMapper, cfg machine.Config) TriadResult {
	if inc < 1 {
		panic(fmt.Sprintf("xmp: increment %d", inc))
	}
	cfg = cfg.Normalized()
	sim := &machine.Simulation{Mem: memsys.NewWithMapper(MemConfig(), mapper)}

	cb := vector.NewCommonBlock(0)
	a := cb.Declare("A", IDim)
	b := cb.Declare("B", IDim)
	c := cb.Declare("C", IDim)
	d := cb.Declare("D", IDim)

	sim.AddBackgroundStream(0, "bg0", 0, 1)
	sim.AddBackgroundStream(0, "bg1", 1, 1)
	sim.AddBackgroundStream(0, "bg2", 2, 1)

	triadCPU := machine.NewCPU(sim.Mem, 1, cfg)
	sim.CPUs = append(sim.CPUs, triadCPU)
	triadCPU.LoadProgram(workload.Triad(a, b, c, d, n, inc, cfg))
	clocks, done := sim.Run(int64(n) * int64(inc) * 1000)
	if !done {
		panic(fmt.Sprintf("xmp: skewed triad INC=%d did not finish", inc))
	}

	res := TriadResult{INC: inc, Clocks: clocks, Micros: cfg.MicroSeconds(clocks)}
	for _, p := range triadCPU.Ports() {
		res.Bank += p.Count.Bank
		res.Section += p.Count.Section
		res.Simultaneous += p.Count.Simultaneous
	}
	return res
}

// LinearSkewMapper returns the linear skewing scheme on 16 banks.
func LinearSkewMapper() memsys.BankMapper { return skew.Linear{M: 16, S: 1} }

// KernelResult is one point of a kernel stride sweep.
type KernelResult struct {
	Kernel       string
	INC          int
	Clocks       int64
	Bank         int64
	Section      int64
	Simultaneous int64
}

// KernelSweep measures copy, vadd and axpy over INC = 1..maxInc in the
// quiet environment — the per-kernel stride tables of the companion
// study [10].
func KernelSweep(maxInc, n int, cfg machine.Config) []KernelResult {
	cfg = cfg.Normalized()
	kernels := []struct {
		name string
		prog func(cb *vector.CommonBlock, inc int) []machine.Instr
	}{
		{"copy", func(cb *vector.CommonBlock, inc int) []machine.Instr {
			a := cb.Declare("A", IDim)
			b := cb.Declare("B", IDim)
			return workload.Copy(a, b, n, inc, cfg)
		}},
		{"vadd", func(cb *vector.CommonBlock, inc int) []machine.Instr {
			a := cb.Declare("A", IDim)
			b := cb.Declare("B", IDim)
			c := cb.Declare("C", IDim)
			return workload.VAdd(a, b, c, n, inc, cfg)
		}},
		{"axpy", func(cb *vector.CommonBlock, inc int) []machine.Instr {
			a := cb.Declare("A", IDim)
			b := cb.Declare("B", IDim)
			return workload.AXPY(a, b, n, inc, cfg)
		}},
	}
	var out []KernelResult
	for _, k := range kernels {
		for inc := 1; inc <= maxInc; inc++ {
			sim := machine.NewSimulation(MemConfig(), 1, cfg)
			sim.CPUs[0].LoadProgram(k.prog(vector.NewCommonBlock(0), inc))
			clocks, done := sim.Run(int64(n) * int64(inc) * 1000)
			if !done {
				panic(fmt.Sprintf("xmp: kernel %s INC=%d did not finish", k.name, inc))
			}
			r := KernelResult{Kernel: k.name, INC: inc, Clocks: clocks}
			for _, p := range sim.CPUs[0].Ports() {
				r.Bank += p.Count.Bank
				r.Section += p.Count.Section
				r.Simultaneous += p.Count.Simultaneous
			}
			out = append(out, r)
		}
	}
	return out
}
