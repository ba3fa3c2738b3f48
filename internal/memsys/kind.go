package memsys

import "fmt"

// CycleKind names the qualitative steady states the paper
// distinguishes for two concurrent streams.
type CycleKind int

const (
	// FreeCycle: no delays inside the cycle; b_eff equals the port count.
	FreeCycle CycleKind = iota
	// BarrierCycle: exactly one stream is delayed (Figs. 3, 5, 6); the
	// delays of a pure barrier are bank conflicts.
	BarrierCycle
	// DoubleCycle: both streams suffer delays, bank conflicts only
	// (Fig. 4's mutual-delay state).
	DoubleCycle
	// LinkedCycle: delays of both kinds — bank and section — appear in
	// the cycle (Fig. 8a's alternating linked conflict).
	LinkedCycle
	// MixedCycle: anything else (e.g. simultaneous conflicts in the
	// cycle, or section-only contention).
	MixedCycle
)

// String names the cycle class for reports.
func (k CycleKind) String() string {
	switch k {
	case FreeCycle:
		return "conflict-free"
	case BarrierCycle:
		return "barrier"
	case DoubleCycle:
		return "double-conflict"
	case LinkedCycle:
		return "linked-conflict"
	case MixedCycle:
		return "mixed"
	default:
		return fmt.Sprintf("CycleKind(%d)", int(k))
	}
}

// Kind classifies the cyclic steady state from its per-port conflict
// counters.
func (c Cycle) Kind() CycleKind {
	var bank, section, simult int64
	delayedPorts := 0
	for _, cc := range c.Conflicts {
		bank += cc.Bank
		section += cc.Section
		simult += cc.Simultaneous
		if cc.Delays() > 0 {
			delayedPorts++
		}
	}
	switch {
	case bank+section+simult == 0:
		return FreeCycle
	case bank > 0 && section > 0:
		return LinkedCycle
	case simult > 0 || section > 0:
		return MixedCycle
	case delayedPorts == 1:
		return BarrierCycle
	default:
		return DoubleCycle
	}
}
