package memsys

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ivm/internal/rat"
)

// Cycle describes the cyclic steady state of a system of infinitely
// long access streams. Because the possible memory states are finite,
// such a system always reaches a cyclic state (the paper's assumption
// 1: "neglecting startup times, we compute the effective bandwidth for
// the cyclic state").
type Cycle struct {
	// Lead is the number of clocks before the cyclic state is entered.
	Lead int64
	// Length is the period of the cyclic state in clocks.
	Length int64
	// Grants counts requests granted per port within one period.
	Grants []int64
	// Conflicts counts delayed clocks per port within one period,
	// classified as in Fig. 10c–e.
	Conflicts []Counters
}

// TotalGrants sums the per-port grants over one period.
func (c Cycle) TotalGrants() int64 {
	var n int64
	for _, g := range c.Grants {
		n += g
	}
	return n
}

// EffectiveBandwidth returns b_eff, the average number of data
// transferred per clock period in the cyclic state, as an exact
// rational (e.g. 3/2 for Fig. 8a).
func (c Cycle) EffectiveBandwidth() rat.Rational {
	return rat.New(c.TotalGrants(), c.Length)
}

// PortBandwidth returns the cyclic-state bandwidth of a single port.
func (c Cycle) PortBandwidth(i int) rat.Rational {
	return rat.New(c.Grants[i], c.Length)
}

// ErrNotPeriodic is returned by FindCycle when a source's future
// behaviour is not a pure function of the hashed state: finite or
// data-dependent sources, or a bank mapper other than ModuloMapper.
var ErrNotPeriodic = errors.New("memsys: system contains non-periodic sources; cycle detection needs infinite strided streams")

// ErrNoCycle is returned when no recurrence was found within maxClocks.
var ErrNoCycle = errors.New("memsys: no cyclic state found within clock budget")

type periodicSource interface{ periodic() bool }

// FindCycle simulates until the memory state recurs and returns the
// cyclic steady state. All sources must be infinite strided streams,
// and the mapper must be ModuloMapper. The state hashed per clock is
// (bank busy remainders, per-port pending bank, priority rotation):
// under the modulo mapping, with each port's stride fixed, that is
// everything that determines the future. Under any other mapper the
// pending bank need not determine the next one, so a recurring state
// would prove no period; FindCycle returns ErrNotPeriodic there.
// maxClocks and the returned Lead are relative to the clock at the
// call, so FindCycle returns the same Cycle on a fresh system and on
// one reused through Reset.
//
// Either kernel leaves the system in its state at the clock the search
// stopped at, so Step continues from there. On the packed kernel
// without a listener, a system reused through Reset keeps the states
// its earlier searches recorded while the port count and each port's
// CPU and stride mod m stay the same (docs/KERNEL.md, "Shared
// recurrence graph"). A search that reaches one of them stops there,
// possibly before clock start + Lead + Length, so the clock a search
// stops at is unspecified; only the returned Cycle is. With a listener
// attached, FindCycle runs the scalar search on either kernel, so the
// events cover every clock of the search.
func (s *System) FindCycle(maxClocks int64) (Cycle, error) {
	start := s.clock
	if _, ok := s.mapper.(ModuloMapper); !ok {
		return Cycle{}, fmt.Errorf("%w (mapper %T)", ErrNotPeriodic, s.mapper)
	}
	for _, p := range s.ports {
		ps, ok := p.Src.(periodicSource)
		if !ok || !ps.periodic() {
			return Cycle{}, fmt.Errorf("%w (port %d is %s)", ErrNotPeriodic, p.ID, describeSource(p.Src))
		}
	}
	if s.kernel == KernelPacked && s.listener == nil {
		return s.findCyclePacked(start, maxClocks)
	}

	type snapshot struct {
		clock     int64
		grants    []int64
		conflicts []Counters
	}
	seen := make(map[string]snapshot)

	record := func() (string, snapshot) {
		var b strings.Builder
		for _, busy := range s.busy {
			fmt.Fprintf(&b, "%d,", busy)
		}
		b.WriteByte('|')
		for _, p := range s.ports {
			addr, ok := p.Src.Pending(s.clock)
			if !ok {
				b.WriteString("-,")
				continue
			}
			fmt.Fprintf(&b, "%d,", s.mapper.Bank(addr))
		}
		fmt.Fprintf(&b, "|%d", s.rr)
		snap := snapshot{
			clock:     s.clock,
			grants:    make([]int64, len(s.ports)),
			conflicts: make([]Counters, len(s.ports)),
		}
		for i, p := range s.ports {
			snap.grants[i] = p.Count.Grants
			snap.conflicts[i] = p.Count
		}
		return b.String(), snap
	}

	for s.clock < start+maxClocks {
		key, snap := record()
		if prev, ok := seen[key]; ok {
			c := Cycle{
				Lead:      prev.clock - start,
				Length:    snap.clock - prev.clock,
				Grants:    make([]int64, len(s.ports)),
				Conflicts: make([]Counters, len(s.ports)),
			}
			for i := range s.ports {
				c.Grants[i] = snap.grants[i] - prev.grants[i]
				c.Conflicts[i] = Counters{
					Grants:       snap.conflicts[i].Grants - prev.conflicts[i].Grants,
					Bank:         snap.conflicts[i].Bank - prev.conflicts[i].Bank,
					Simultaneous: snap.conflicts[i].Simultaneous - prev.conflicts[i].Simultaneous,
					Section:      snap.conflicts[i].Section - prev.conflicts[i].Section,
					Idle:         snap.conflicts[i].Idle - prev.conflicts[i].Idle,
				}
			}
			return c, nil
		}
		seen[key] = snap
		s.Step()
	}
	return Cycle{}, ErrNoCycle
}

// SteadyBandwidth is a convenience wrapper: build a system from bank
// -space streams (one CPU unless cpuOf is given), find the cycle, and
// return b_eff. See FindCycle for the mechanics.
func SteadyBandwidth(cfg Config, maxClocks int64, specs ...StreamSpec) (rat.Rational, error) {
	sys := New(cfg)
	sys.AddStreams(specs...)
	c, err := sys.FindCycle(maxClocks)
	if err != nil {
		return rat.Zero(), err
	}
	return c.EffectiveBandwidth(), nil
}

// StreamSpec names an infinite bank-space stream for AddStreams,
// SteadyBandwidth and the experiment drivers: start bank, distance,
// owning CPU.
type StreamSpec struct {
	Start    int
	Distance int
	CPU      int
	Label    string
}

// AddStreams attaches one infinite strided source port per spec, in
// order. Streams without a label are named by their position ("1",
// "2", …), the convention every sweep table and trace uses. This is
// the one construction path from declarative stream specs to live
// ports; SteadyBandwidth and the sweep engine's generic ConfigSpec
// path both build on it.
//
// After Reset, AddStreams re-arms the ports (and their sources) it
// built before, in the order it built them, and allocates only when a
// placement has more streams than any before it. A re-armed port's
// ID, CPU, Label, Src and Count describe the new stream, so a caller
// must not keep a Port that AddStreams built past the next Reset. The
// exception is a listener: while one is attached, AddStreams builds
// fresh ports and never re-arms them, because a listener may keep
// Event.Port. AddPort never re-arms.
func (s *System) AddStreams(specs ...StreamSpec) {
	for i, sp := range specs {
		label := sp.Label
		if label == "" {
			label = strconv.Itoa(i + 1)
		}
		var p *streamPort
		switch {
		case s.listener != nil:
			p = new(streamPort)
		case s.rearmed < len(s.streamPorts):
			p = s.streamPorts[s.rearmed]
			s.rearmed++
		default:
			p = new(streamPort)
			s.streamPorts = append(s.streamPorts, p)
			s.rearmed++
		}
		p.src = StridedSource{Addr: int64(sp.Start), Stride: int64(sp.Distance), Remaining: -1}
		p.Port = Port{CPU: sp.CPU, Label: label, Src: &p.src}
		s.attach(&p.Port)
	}
}

// streamPort is a port AddStreams built together with its infinite
// strided source, in one allocation.
type streamPort struct {
	Port
	src StridedSource
}
