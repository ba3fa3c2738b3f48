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
	// Conflicts counts, per port within one period, the granted
	// requests, the idle clocks and the delayed clocks, classified as
	// in Fig. 10c–e.
	Conflicts []Counters
}

// TotalGrants sums the per-port grants over one period.
func (c Cycle) TotalGrants() int64 {
	var n int64
	for _, k := range c.Conflicts {
		n += k.Grants
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
	return rat.New(c.Conflicts[i].Grants, c.Length)
}

// reserve gives the emptied c.Conflicts room for np ports, allocating
// only when it has less. It makes the slice itself rather than grow it
// with slices.Grow, whose append of a make allocates twice in a race
// build.
func (c *Cycle) reserve(np int) {
	if cap(c.Conflicts) < np {
		c.Conflicts = make([]Counters, 0, np)
	}
}

// ErrNotPeriodic is returned by FindCycle when a source's future
// behaviour is not a pure function of the hashed state: finite or
// data-dependent sources, or a bank mapper other than ModuloMapper.
var ErrNotPeriodic = errors.New("memsys: system contains non-periodic sources; cycle detection needs infinite strided streams")

// ErrNoCycle is returned when no recurrence was found within maxClocks.
var ErrNoCycle = errors.New("memsys: no cyclic state found within clock budget")

type periodicSource interface{ periodic() bool }

// FindCycle simulates until the memory state recurs and returns the
// cyclic steady state in a new Cycle. It is FindCycleInto on a fresh
// Cycle; see there for the mechanics. On an error it returns the zero
// Cycle.
func (s *System) FindCycle(maxClocks int64) (Cycle, error) {
	var c Cycle
	err := s.FindCycleInto(&c, maxClocks)
	return c, err
}

// FindCycleInto simulates until the memory state recurs and fills c
// with the cyclic steady state. All sources must be infinite strided
// streams, and the mapper must be ModuloMapper. The state hashed per
// clock is (bank busy remainders, per-port pending bank, priority
// rotation): under the modulo mapping, with each port's stride fixed,
// that is everything that determines the future. Under any other
// mapper the pending bank need not determine the next one, so a
// recurring state would prove no period; FindCycleInto returns
// ErrNotPeriodic there. maxClocks and the returned Lead are relative
// to the clock at the call, so FindCycleInto finds the same Cycle on a
// fresh system and on one reused through Reset.
//
// c.Conflicts is refilled in place, reusing its capacity, so a caller
// that keeps one Cycle across searches allocates it only when a search
// has more ports than any before it; the packed search then allocates
// nothing (see TestFindCyclePackedReusedAllocs). A Cycle obtained
// earlier from the same c shares its Conflicts and is overwritten.
// On an error c holds Lead 0, Length 0 and no Conflicts.
//
// Either kernel leaves the system in its state at the clock the search
// stopped at — bank busy times and owners, each source's address and
// issue count, the ports' counters — so Step continues from there. On
// the packed kernel without a listener, a system reused through Reset
// keeps the states its earlier searches recorded while the port count
// and each port's CPU and stride mod m stay the same (docs/KERNEL.md,
// "Shared recurrence graph"). A search that reaches one of them stops
// there, possibly before clock start + Lead + Length, so the clock a
// search stops at is unspecified; only the Cycle is. With a listener
// attached, the search is the scalar one on either kernel, so the
// events cover every clock of the search.
func (s *System) FindCycleInto(c *Cycle, maxClocks int64) error {
	*c = Cycle{Conflicts: c.Conflicts[:0]}
	start := s.clock
	if _, ok := s.mapper.(ModuloMapper); !ok {
		return fmt.Errorf("%w (mapper %T)", ErrNotPeriodic, s.mapper)
	}
	for _, p := range s.ports {
		ps, ok := p.Src.(periodicSource)
		if !ok || !ps.periodic() {
			return fmt.Errorf("%w (port %d is %s)", ErrNotPeriodic, p.ID, describeSource(p.Src))
		}
	}
	if s.kernel == KernelPacked && s.listener == nil {
		return s.findCyclePacked(c, start, maxClocks)
	}

	type snapshot struct {
		clock  int64
		counts []Counters
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
		snap := snapshot{clock: s.clock, counts: make([]Counters, len(s.ports))}
		for i, p := range s.ports {
			snap.counts[i] = p.Count
		}
		return b.String(), snap
	}

	for s.clock < start+maxClocks {
		key, snap := record()
		if prev, ok := seen[key]; ok {
			c.Lead, c.Length = prev.clock-start, snap.clock-prev.clock
			c.reserve(len(snap.counts))
			for i, now := range snap.counts {
				was := prev.counts[i]
				c.Conflicts = append(c.Conflicts, Counters{
					Grants:       now.Grants - was.Grants,
					Bank:         now.Bank - was.Bank,
					Simultaneous: now.Simultaneous - was.Simultaneous,
					Section:      now.Section - was.Section,
					Idle:         now.Idle - was.Idle,
				})
			}
			return nil
		}
		seen[key] = snap
		s.Step()
	}
	return ErrNoCycle
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
// placement has more streams than any before it. Re-arming writes the
// port in place: the source's address, stride and issue count, the
// CPU, the label when it differs, and zeroed counters; the port's Src
// already points at its own source. A re-armed port's ID, CPU, Label,
// Src and Count describe the new stream, so a caller must not keep a
// Port that AddStreams built past the next Reset. The exception is a
// listener: while one is attached, AddStreams builds fresh ports and
// never re-arms them, because a listener may keep Event.Port. AddPort
// never re-arms. A caller whose next streams keep every port's CPU
// and label can re-arm without Reset through Rearm.
func (s *System) AddStreams(specs ...StreamSpec) {
	for i, sp := range specs {
		label := sp.Label
		if label == "" {
			label = strconv.Itoa(i + 1)
		}
		var p *streamPort
		switch {
		case s.listener != nil:
			p = newStreamPort()
		case s.rearmed < len(s.streamPorts):
			p = s.streamPorts[s.rearmed]
			s.rearmed++
		default:
			p = newStreamPort()
			s.streamPorts = append(s.streamPorts, p)
			s.rearmed++
		}
		p.src = StridedSource{Addr: int64(sp.Start), Stride: int64(sp.Distance), Remaining: -1}
		if p.Label != label { // a repeated label costs no pointer write
			p.Label = label
		}
		p.CPU, p.Count = sp.CPU, Counters{}
		s.attach(&p.Port)
	}
}

// streamPort is a port AddStreams built together with its infinite
// strided source, in one allocation.
type streamPort struct {
	Port
	src StridedSource
}

// newStreamPort builds a stream port whose Src is its own source, which
// re-arming keeps.
func newStreamPort() *streamPort {
	p := new(streamPort)
	p.Src = &p.src
	return p
}
