// Package machine models a Cray X-MP-like vector CPU at the clock
// level, precise enough to reproduce the memory-conflict behaviour the
// paper measures in Section IV:
//
//   - vector registers of VL elements,
//   - dedicated memory ports (two vector-load, one vector-store per
//     CPU on the X-MP) driving access streams into a shared
//     memsys.System,
//   - pipelined add and multiply functional units,
//   - flexible chaining: a dependent instruction issues immediately and
//     consumes operand elements as they become available,
//   - strictly in-order issue with register and unit scoreboarding,
//   - strip-mined loops with a configurable scalar overhead per strip.
//
// Absolute timings are approximations of the 9.5 ns X-MP (documented in
// Config); the conflict counts and the relative shape over strides are
// determined by the memory system, which is exact.
package machine

import "fmt"

// Op is a vector instruction opcode.
type Op int

const (
	// OpLoad reads N equally spaced words into Dst (uses a load port).
	OpLoad Op = iota
	// OpStore writes register Src1 to N equally spaced words (store port).
	OpStore
	// OpAdd is an elementwise pipelined addition Dst = Src1 + Src2.
	OpAdd
	// OpMul is an elementwise pipelined multiplication Dst = Src1 * Src2.
	OpMul
)

// String returns the operation's mnemonic, such as "vload".
func (o Op) String() string {
	switch o {
	case OpLoad:
		return "vload"
	case OpStore:
		return "vstore"
	case OpAdd:
		return "vadd"
	case OpMul:
		return "vmul"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Instr is one vector instruction. N is the vector length; memory
// operations carry Base/Stride in words, or — for gather/scatter
// (indexed) operations, which the later X-MP models added — a per-
// element index vector: element e goes to address Base + Indices[e].
// IssueDelay adds scalar overhead before this instruction may issue
// (used at strip boundaries for loop control).
type Instr struct {
	Op         Op
	Dst        int // vector register, for OpLoad/OpAdd/OpMul
	Src1, Src2 int // operands; OpStore reads Src1
	Base       int64
	Stride     int64
	Indices    []int64 // non-nil: indexed (gather/scatter) addressing
	N          int
	IssueDelay int
}

// Addr returns the address of element e of a memory instruction.
func (in Instr) Addr(e int) int64 {
	if in.Indices != nil {
		return in.Base + in.Indices[e]
	}
	return in.Base + int64(e)*in.Stride
}

// Config sets the machine's timing parameters. Zero values select the
// X-MP-flavoured defaults of DefaultConfig.
type Config struct {
	VectorLength  int     // register length (X-MP: 64)
	LoadPorts     int     // vector-load ports per CPU (X-MP: 2)
	StorePorts    int     // vector-store ports per CPU (X-MP: 1)
	Registers     int     // vector registers (X-MP: 8)
	MemLatency    int     // clocks from memory grant to register element (X-MP: ~14)
	AddLatency    int     // floating-add pipeline depth (X-MP: 6)
	MulLatency    int     // floating-multiply pipeline depth (X-MP: 7)
	StripOverhead int     // scalar loop-control clocks between strips (~2 dozen)
	ClockNS       float64 // clock period in ns (X-MP: 9.5)
}

// DefaultConfig returns Cray X-MP-flavoured parameters.
func DefaultConfig() Config {
	return Config{
		VectorLength:  64,
		LoadPorts:     2,
		StorePorts:    1,
		Registers:     8,
		MemLatency:    14,
		AddLatency:    6,
		MulLatency:    7,
		StripOverhead: 24,
		ClockNS:       9.5,
	}
}

// Normalized returns the configuration with zero fields replaced by
// the X-MP defaults.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.VectorLength == 0 {
		c.VectorLength = d.VectorLength
	}
	if c.LoadPorts == 0 {
		c.LoadPorts = d.LoadPorts
	}
	if c.StorePorts == 0 {
		c.StorePorts = d.StorePorts
	}
	if c.Registers == 0 {
		c.Registers = d.Registers
	}
	if c.MemLatency == 0 {
		c.MemLatency = d.MemLatency
	}
	if c.AddLatency == 0 {
		c.AddLatency = d.AddLatency
	}
	if c.MulLatency == 0 {
		c.MulLatency = d.MulLatency
	}
	if c.StripOverhead == 0 {
		c.StripOverhead = d.StripOverhead
	}
	if c.ClockNS == 0 {
		c.ClockNS = d.ClockNS
	}
	return c
}

// Validate checks a program against the configuration.
func (c Config) Validate(prog []Instr) error {
	c = c.withDefaults()
	for i, in := range prog {
		if in.N <= 0 {
			return fmt.Errorf("machine: instr %d (%s): vector length %d", i, in.Op, in.N)
		}
		if in.N > c.VectorLength {
			return fmt.Errorf("machine: instr %d (%s): N = %d exceeds VL = %d", i, in.Op, in.N, c.VectorLength)
		}
		if in.Indices != nil && len(in.Indices) < in.N {
			return fmt.Errorf("machine: instr %d (%s): %d indices for N = %d", i, in.Op, len(in.Indices), in.N)
		}
		regs := []int{}
		switch in.Op {
		case OpLoad:
			regs = append(regs, in.Dst)
		case OpStore:
			regs = append(regs, in.Src1)
		case OpAdd, OpMul:
			regs = append(regs, in.Dst, in.Src1, in.Src2)
		default:
			return fmt.Errorf("machine: instr %d: unknown op %d", i, int(in.Op))
		}
		for _, r := range regs {
			if r < 0 || r >= c.Registers {
				return fmt.Errorf("machine: instr %d (%s): register V%d out of range", i, in.Op, r)
			}
		}
	}
	return nil
}
