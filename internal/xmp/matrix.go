package xmp

import (
	"fmt"

	"ivm/internal/core"
	"ivm/internal/machine"
	"ivm/internal/vector"
)

// The conclusion's programmer guidance, made measurable: "In case of
// higher-dimensional arrays care must be taken when rows (in case of
// Fortran) or diagonals are to be accessed. A safe method is to choose
// the dimension of arrays so that they are relatively prime to the
// number of banks." This experiment sweeps column, row and diagonal
// access of a square matrix for several leading dimensions and reports
// the time of a vadd over the accessed vector, plus the analytic
// distance and single-stream bandwidth.

// AccessPattern names a matrix traversal.
type AccessPattern int

const (
	// ColumnAccess walks down a column: distance 1.
	ColumnAccess AccessPattern = iota
	// RowAccess walks along a row: distance = leading dimension.
	RowAccess
	// DiagonalAccess walks the main diagonal: distance = leading
	// dimension + 1.
	DiagonalAccess
)

// String returns the pattern's name: "column", "row" or "diagonal".
func (p AccessPattern) String() string {
	switch p {
	case ColumnAccess:
		return "column"
	case RowAccess:
		return "row"
	case DiagonalAccess:
		return "diagonal"
	default:
		return fmt.Sprintf("AccessPattern(%d)", int(p))
	}
}

// MatrixResult is one cell of the study.
type MatrixResult struct {
	LeadingDim int
	Pattern    AccessPattern
	Distance   int     // bank-space distance (Eq. 33)
	Predicted  float64 // single-stream b_eff ceiling min(1, r/n_c)
	Clocks     int64   // measured vadd time over n elements
}

// MatrixAccess measures one (leading dimension, pattern) combination:
// C = A + B elementwise over n elements taken from two Fortran matrices
// declared (ldim, 2n) — tall enough that a row or diagonal of n
// elements exists; only the leading dimension matters for the stride.
func MatrixAccess(ldim int, pattern AccessPattern, n int, cfg machine.Config) MatrixResult {
	cfg = cfg.Normalized()
	mem := MemConfig()

	cb := vector.NewCommonBlock(0)
	a := cb.Declare("A", ldim, 2*n)
	b := cb.Declare("B", ldim, 2*n)
	out := cb.Declare("C", ldim*2*n+1)

	var stride int64
	switch pattern {
	case ColumnAccess:
		stride = 1
	case RowAccess:
		stride = a.DimStride(1)
	case DiagonalAccess:
		stride = a.DiagonalStride()
	default:
		panic(fmt.Sprintf("xmp: unknown pattern %d", int(pattern)))
	}
	if int64(n-1)*stride >= a.Words() {
		panic(fmt.Sprintf("xmp: %d elements at stride %d exceed a %dx%d matrix", n, stride, ldim, ldim))
	}

	d := int(stride % int64(mem.Banks))
	res := MatrixResult{
		LeadingDim: ldim,
		Pattern:    pattern,
		Distance:   d,
		Predicted:  core.SingleStreamBandwidth(mem.Banks, mem.BankBusy, d).Float(),
	}

	sim := machine.NewSimulation(mem, 1, cfg)
	var prog []machine.Instr
	offset := int64(0)
	remaining := n
	si := 0
	for remaining > 0 {
		sn := remaining
		if sn > cfg.VectorLength {
			sn = cfg.VectorLength
		}
		delay := 0
		if si > 0 {
			delay = cfg.StripOverhead
		}
		prog = append(prog,
			machine.Instr{Op: machine.OpLoad, Dst: 0, Base: a.Base + offset, Stride: stride, N: sn, IssueDelay: delay},
			machine.Instr{Op: machine.OpLoad, Dst: 1, Base: b.Base + offset, Stride: stride, N: sn},
			machine.Instr{Op: machine.OpAdd, Dst: 2, Src1: 0, Src2: 1, N: sn},
			machine.Instr{Op: machine.OpStore, Src1: 2, Base: out.Base + offset, Stride: stride, N: sn},
		)
		offset += int64(sn) * stride
		remaining -= sn
		si++
	}
	sim.CPUs[0].LoadProgram(prog)
	clocks, done := sim.Run(int64(n) * int64(stride+2) * 1000)
	if !done {
		panic(fmt.Sprintf("xmp: matrix access ldim=%d %s did not finish", ldim, pattern))
	}
	res.Clocks = clocks
	return res
}

// MatrixStudy sweeps the patterns over the given leading dimensions.
func MatrixStudy(ldims []int, n int, cfg machine.Config) []MatrixResult {
	var out []MatrixResult
	for _, ld := range ldims {
		for _, p := range []AccessPattern{ColumnAccess, RowAccess, DiagonalAccess} {
			out = append(out, MatrixAccess(ld, p, n, cfg))
		}
	}
	return out
}
