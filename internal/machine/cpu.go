package machine

import (
	"fmt"
	"math"

	"ivm/internal/memsys"
)

const farFuture = math.MaxInt64 / 4

// vreg is a vector register with per-element availability times used
// for flexible chaining: element e may be consumed at clock t iff
// avail[e] <= t.
type vreg struct {
	avail   []int64
	writer  *activeOp
	readers int
}

func newVReg(vl int) *vreg {
	v := &vreg{avail: make([]int64, vl)}
	return v
}

func (v *vreg) beginWrite(op *activeOp, n int) {
	v.writer = op
	for e := 0; e < n; e++ {
		v.avail[e] = farFuture
	}
}

// drainedBy reports whether every element written so far is available
// no later than t (the previous writer's pipeline has drained).
func (v *vreg) drainedBy(t int64) bool {
	for _, a := range v.avail {
		if a > t {
			return false
		}
	}
	return true
}

// activeOp is an in-flight vector instruction.
type activeOp struct {
	instr Instr
	cpu   *CPU
	// next is the next element index to request (memory ops) or start
	// (ALU ops).
	next int
	// lastStart is the clock the previous ALU element started, to
	// enforce one element per clock.
	lastStart int64
	dst       *vreg
	src1      *vreg
	src2      *vreg
	port      *memPort // memory ops
	unit      *fu      // ALU ops
	complete  bool
}

// fu is a pipelined functional unit; busy while an op streams through.
type fu struct {
	name    string
	latency int
	op      *activeOp
}

// memPort adapts an in-flight memory instruction to memsys.Source. A
// port with no active op reports no pending request; it never reports
// Done so that the shared memory system keeps polling it.
type memPort struct {
	memsysPort *memsys.Port
	op         *activeOp
}

// Pending implements memsys.Source.
func (p *memPort) Pending(clock int64) (int64, bool) {
	op := p.op
	if op == nil || op.next >= op.instr.N {
		return 0, false
	}
	if op.instr.Op == OpStore {
		// The element can be stored only once produced (chaining).
		if op.src1.avail[op.next] > clock {
			return 0, false
		}
	}
	return op.instr.Addr(op.next), true
}

// Grant implements memsys.Source.
func (p *memPort) Grant(clock int64) {
	op := p.op
	if op == nil {
		panic("machine: grant on idle port")
	}
	if op.instr.Op == OpLoad {
		op.dst.avail[op.next] = clock + int64(op.cpu.cfg.MemLatency)
	}
	op.next++
}

// Done implements memsys.Source.
func (p *memPort) Done() bool { return false }

// CPU is one vector processor attached to a shared memory system.
type CPU struct {
	cfg  Config
	id   int
	regs []*vreg

	loadPorts  []*memPort
	storePorts []*memPort
	addUnit    *fu
	mulUnit    *fu

	program      []Instr
	pc           int
	issueReadyAt int64
	active       []*activeOp

	// IssuedAt / RetiredAt record per-instruction clocks for analysis.
	IssuedAt  []int64
	doneClock int64
}

// NewCPU creates a vector CPU and registers its memory ports on the
// given CPU slot of the shared memory system. Port labels encode the
// CPU and port kind ("c0.l0", "c0.s0", …).
func NewCPU(sys *memsys.System, cpuSlot int, cfg Config) *CPU {
	cfg = cfg.withDefaults()
	c := &CPU{cfg: cfg, id: cpuSlot, doneClock: -1}
	c.regs = make([]*vreg, cfg.Registers)
	for i := range c.regs {
		c.regs[i] = newVReg(cfg.VectorLength)
	}
	for i := 0; i < cfg.LoadPorts; i++ {
		p := &memPort{}
		p.memsysPort = sys.AddPort(cpuSlot, fmt.Sprintf("c%d.l%d", cpuSlot, i), p)
		c.loadPorts = append(c.loadPorts, p)
	}
	for i := 0; i < cfg.StorePorts; i++ {
		p := &memPort{}
		p.memsysPort = sys.AddPort(cpuSlot, fmt.Sprintf("c%d.s%d", cpuSlot, i), p)
		c.storePorts = append(c.storePorts, p)
	}
	c.addUnit = &fu{name: "add", latency: cfg.AddLatency}
	c.mulUnit = &fu{name: "mul", latency: cfg.MulLatency}
	return c
}

// Ports returns the memsys ports of this CPU (loads first, then
// stores), for conflict accounting.
func (c *CPU) Ports() []*memsys.Port {
	var out []*memsys.Port
	for _, p := range c.loadPorts {
		out = append(out, p.memsysPort)
	}
	for _, p := range c.storePorts {
		out = append(out, p.memsysPort)
	}
	return out
}

// LoadProgram resets the CPU and installs a program. It panics on an
// invalid program (programming error in the workload generator).
func (c *CPU) LoadProgram(prog []Instr) {
	if err := c.cfg.Validate(prog); err != nil {
		panic(err)
	}
	c.program = prog
	c.pc = 0
	c.issueReadyAt = 0
	c.active = nil
	c.IssuedAt = make([]int64, len(prog))
	for i := range c.IssuedAt {
		c.IssuedAt[i] = -1
	}
	c.doneClock = -1
	for _, r := range c.regs {
		for e := range r.avail {
			r.avail[e] = 0
		}
		r.writer = nil
		r.readers = 0
	}
}

// Done reports whether the program has fully retired.
func (c *CPU) Done() bool { return c.pc >= len(c.program) && len(c.active) == 0 }

// DoneClock returns the clock at which the program retired (-1 while
// running).
func (c *CPU) DoneClock() int64 { return c.doneClock }

// tryIssue issues at most one instruction, in order, at clock t.
func (c *CPU) tryIssue(t int64) {
	if c.pc >= len(c.program) || t < c.issueReadyAt {
		return
	}
	in := c.program[c.pc]
	op := &activeOp{instr: in, cpu: c, lastStart: -1}

	switch in.Op {
	case OpLoad:
		port := c.freePort(c.loadPorts)
		if port == nil {
			return
		}
		dst := c.regs[in.Dst]
		if !c.regFreeForWrite(dst, t) {
			return
		}
		op.dst = dst
		op.port = port
	case OpStore:
		port := c.freePort(c.storePorts)
		if port == nil {
			return
		}
		op.src1 = c.regs[in.Src1]
		op.port = port
	case OpAdd, OpMul:
		unit := c.addUnit
		if in.Op == OpMul {
			unit = c.mulUnit
		}
		if unit.op != nil {
			return
		}
		dst := c.regs[in.Dst]
		if !c.regFreeForWrite(dst, t) {
			return
		}
		// Reading and writing the same register in one instruction
		// (recursive use) is not supported by this model.
		if in.Src1 == in.Dst || in.Src2 == in.Dst {
			panic(fmt.Sprintf("machine: instr %d reuses V%d as source and destination", c.pc, in.Dst))
		}
		op.dst = dst
		op.src1 = c.regs[in.Src1]
		op.src2 = c.regs[in.Src2]
		op.unit = unit
	}

	// Commit the issue.
	if op.dst != nil {
		op.dst.beginWrite(op, in.N)
	}
	if op.src1 != nil {
		op.src1.readers++
	}
	if op.src2 != nil {
		op.src2.readers++
	}
	if op.port != nil {
		op.port.op = op
	}
	if op.unit != nil {
		op.unit.op = op
	}
	c.active = append(c.active, op)
	c.IssuedAt[c.pc] = t
	c.pc++
	c.issueReadyAt = t + 1
	if c.pc < len(c.program) {
		c.issueReadyAt += int64(c.program[c.pc].IssueDelay)
	}
}

func (c *CPU) freePort(ports []*memPort) *memPort {
	for _, p := range ports {
		if p.op == nil {
			return p
		}
	}
	return nil
}

// regFreeForWrite: no in-flight writer, no active readers, and the
// previous write fully drained (WAW/WAR hazards; flexible chaining
// covers RAW via per-element availability).
func (c *CPU) regFreeForWrite(v *vreg, t int64) bool {
	return v.writer == nil && v.readers == 0 && v.drainedBy(t)
}

// advanceALU starts at most one element of each active ALU op whose
// operands are available at clock t.
func (c *CPU) advanceALU(t int64) {
	for _, op := range c.active {
		if op.unit == nil || op.next >= op.instr.N {
			continue
		}
		if op.lastStart == t {
			continue
		}
		e := op.next
		if op.src1.avail[e] > t || op.src2.avail[e] > t {
			continue
		}
		op.dst.avail[e] = t + int64(op.unit.latency)
		op.lastStart = t
		op.next++
	}
}

// retire releases units, ports and register claims of finished ops.
// A memory op finishes when all elements are granted; an ALU op when
// all elements have started (the pipeline drains in the background,
// tracked by the avail times).
func (c *CPU) retire(t int64) {
	remaining := c.active[:0]
	for _, op := range c.active {
		if op.next >= op.instr.N {
			op.complete = true
			if op.port != nil {
				op.port.op = nil
			}
			if op.unit != nil {
				op.unit.op = nil
			}
			if op.dst != nil {
				op.dst.writer = nil
			}
			if op.src1 != nil {
				op.src1.readers--
			}
			if op.src2 != nil {
				op.src2.readers--
			}
			continue
		}
		remaining = append(remaining, op)
	}
	c.active = remaining
	if c.Done() && c.doneClock < 0 {
		c.doneClock = t
	}
}
