package ivm_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ivm"
)

// The README's quickstart snippet, line for line (TestReadmeSnippet
// keeps the two in step).
func Example() {
	// Will a unit-stride loop and a stride-2 loop coexist on a 16-bank
	// memory with a 4-clock bank cycle time?
	a := ivm.Analyze(16, 4, 1, 2)
	// From EVERY relative start the pair falls into a unique
	// barrier-situation with b_eff = 1 + 1/2 = 3/2:
	fmt.Println(a.Regime == ivm.RegimeUniqueBarrier, a.Bandwidth)

	// Confirm by simulation (exact, from the detected cyclic state):
	bw, _ := ivm.SteadyBandwidth(
		ivm.MemConfig{Banks: 16, BankBusy: 4, CPUs: 2}, 1<<20,
		ivm.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		ivm.StreamSpec{Start: 0, Distance: 2, CPU: 1},
	)
	fmt.Println(bw)

	// Every placement of the pair lies between 1/n_c and the capacity:
	fmt.Println(ivm.PairBandwidthBounds(16, 4, 1, 2))

	// And watch it happen, in the paper's timeline notation:
	fmt.Print(ivm.Timeline(ivm.MemConfig{Banks: 16, BankBusy: 4, CPUs: 2}, 40,
		ivm.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		ivm.StreamSpec{Start: 0, Distance: 2, CPU: 1}))
	// Output:
	// true 3/2
	// 3/2
	// 1/4 2
	//  0 <<<<2222........111<2222........111<2222
	//  1 .1111............1111............1111...
	//  2 ..111<2222........111<2222........111<22
	//  3 ...1111............1111............1111.
	//  4 ....111<2222........111<2222........111<
	//  5 .....1111............1111............111
	//  6 ......111<2222........111<2222........11
	//  7 .......1111............1111............1
	//  8 ........111<2222........111<2222........
	//  9 .........1111............1111...........
	// 10 ..........111<2222........111<2222......
	// 11 ...........1111............1111.........
	// 12 ............111<2222........111<2222....
	// 13 .............1111............1111.......
	// 14 ..............111<2222........111<2222..
	// 15 ...............1111............1111.....
}

// The same pair swept over every start of stream 2: a SweepConfigSpec
// names each stream, and Sweep marks the one whose start is enumerated.
func ExampleNewSweepEngine() {
	spec := ivm.SweepConfigSpec{M: 16, NC: 4, Streams: []ivm.SweepStream{
		{D: 1, CPU: 0},
		{D: 2, CPU: 1, Sweep: true},
	}}
	eng := ivm.NewSweepEngine(ivm.SweepOptions{Workers: 2})
	r := eng.SpecGrid([]ivm.SweepConfigSpec{spec})[0]
	fmt.Println(spec.Family(), r.Starts, r.SimMin, r.SimMax, r.Violations)
	// Output: pair 16 3/2 3/2 0
}

// TestReadmeSnippet checks that README.md's quickstart code block is
// the body of Example, so the README shows code that compiles and
// prints what Example's Output pins.
func TestReadmeSnippet(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(readme), "```go\n")
	block, _, _ = strings.Cut(block, "```")
	_, body, _ := strings.Cut(string(src), "func Example() {\n")
	body, _, _ = strings.Cut(body, "\t// Output:")
	want, got := trimmedLines(block), trimmedLines(body)
	if len(got) != len(want) {
		t.Fatalf("README snippet has %d lines, Example %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("line %d: README %q, Example %q", i+1, want[i], got[i])
		}
	}
}

// trimmedLines splits s into lines without their indentation, so a
// README block indented with spaces matches gofmt's tabs.
func trimmedLines(s string) []string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for i := range lines {
		lines[i] = strings.TrimSpace(lines[i])
	}
	return lines
}
