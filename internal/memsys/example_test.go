package memsys_test

import (
	"fmt"

	"ivm/internal/memsys"
)

// Simulate the paper's Fig. 3 barrier-situation and read off the exact
// steady-state bandwidth.
func ExampleSystem_FindCycle() {
	sys := memsys.New(memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 6))
	cycle, err := sys.FindCycle(1 << 20)
	if err != nil {
		panic(err)
	}
	fmt.Println(cycle.EffectiveBandwidth(), cycle.Kind())
	// Output: 7/6 barrier
}

// A finite vector instruction: a 64-element unit-stride stream
// transfers all of its elements in 64 clocks and then falls idle.
func ExampleSystem_Run() {
	sys := memsys.New(memsys.Config{Banks: 8, BankBusy: 2, CPUs: 1})
	p := sys.AddPort(0, "1", &memsys.StridedSource{Addr: 0, Stride: 1, Remaining: 64})
	fmt.Println(sys.Run(64), p.Src.Done(), sys.Run(10))
	// Output: 64 true 0
}

func ExampleSteadyBandwidth() {
	// Fig. 2: conflict-free pair, b_eff = 2.
	bw, err := memsys.SteadyBandwidth(
		memsys.Config{Banks: 12, BankBusy: 3, CPUs: 2}, 1<<20,
		memsys.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		memsys.StreamSpec{Start: 3, Distance: 7, CPU: 1},
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(bw)
	// Output: 2
}
