package memsys

// The bit-packed bank-busy kernel: an alternative implementation of the
// simulator's inner loop that keeps the busy set as one bit per bank in
// []uint64 words, tracks busy expiries in a small event wheel instead
// of decrementing a per-bank counter every clock, skips ahead over
// provably blocked stretches in Run, and hashes the packed state with a
// cheap binary key in cycle detection. The scalar kernel (the loop in
// Step) remains the reference implementation — the oracle the
// differential suite in kernel_diff_test.go holds this kernel to,
// clock by clock. docs/KERNEL.md derives the equivalence argument.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Kernel selects the simulator's inner-loop implementation.
type Kernel int

const (
	// KernelScalar is the reference per-bank busy-counter loop — the
	// oracle every other kernel is differentially tested against.
	KernelScalar Kernel = iota
	// KernelPacked is the bit-packed bank-busy kernel: busy bits in
	// []uint64 words, expiries in an event wheel, skip-ahead in Run,
	// binary state keys in FindCycle. Semantically identical to
	// KernelScalar (same grants, same conflict classification, same
	// events, same cyclic states).
	KernelPacked
)

// String names the kernel for tables and flag output.
func (k Kernel) String() string {
	switch k {
	case KernelScalar:
		return "scalar"
	case KernelPacked:
		return "packed"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Kernel returns the kernel the system is running on.
func (s *System) Kernel() Kernel { return s.kernel }

// PackedSupportsPriority reports whether the packed kernel implements a
// priority rule natively. All three rules share the generic rotation
// machinery (advanceRotation; the rr pointer is part of both kernels'
// cycle-state keys), so the answer is true for every known rule; the
// function gives callers that pick a kernel per priority rule a single
// authoritative predicate to ask, rather than assuming.
func PackedSupportsPriority(pr PriorityRule) bool {
	switch pr {
	case FixedPriority, CyclicPriority, RoundRobinPerCPU:
		return true
	default:
		return false
	}
}

// SetKernel switches the simulator's inner-loop implementation. The
// switch is only legal while every bank is idle (e.g. right after New
// or Reset); switching mid-simulation would need a state conversion
// and is a programming error, so it panics.
func (s *System) SetKernel(k Kernel) {
	if k == s.kernel {
		return
	}
	for b := range s.busy {
		if s.BankBusy(b) != 0 {
			panic("memsys: SetKernel while banks are busy")
		}
	}
	s.kernel = k
	if k != KernelPacked {
		return
	}
	if s.words == nil {
		s.words = make([]uint64, (s.cfg.Banks+63)/64)
		s.expiry = make([]int64, s.cfg.Banks)
		s.wheel = make([][]int32, s.cfg.BankBusy+1)
	}
	s.clearPacked()
}

// clearPacked empties the packed busy set and the event wheel and
// re-anchors the wheel's drain cursor at the current clock, so a reused
// system cannot observe stale bits or stale expiry events.
func (s *System) clearPacked() {
	if s.words == nil {
		return
	}
	for i := range s.words {
		s.words[i] = 0
	}
	for i := range s.wheel {
		s.wheel[i] = s.wheel[i][:0]
	}
	s.expired = s.clock
}

// packedBusy reports whether a bank is busy under the packed kernel.
// The expiry guard makes the answer exact even when the bank's wheel
// slot has not been drained yet (bits are cleared lazily by expireTo).
func (s *System) packedBusy(bank int) bool {
	return s.words[bank>>6]&(1<<(uint(bank)&63)) != 0 && s.expiry[bank] > s.clock
}

// expireTo drains the event wheel up to and including clock t, clearing
// the busy bit and owner of every bank whose busy period ends by t. A
// bank granted at clock g is busy for clocks g .. g+n_c-1 and its
// expiry event is scheduled at g+n_c, so draining slot t frees exactly
// the banks the scalar kernel's end-of-step decrement would have
// brought to zero before clock t's arbitration. The wheel has n_c+1
// slots, one more than the longest pending horizon, so a slot never
// holds events of two different clocks.
func (s *System) expireTo(t int64) {
	w := int64(len(s.wheel))
	for ; s.expired <= t; s.expired++ {
		i := int(s.expired % w)
		slot := s.wheel[i]
		if len(slot) == 0 {
			continue
		}
		for _, b := range slot {
			s.words[b>>6] &^= 1 << (uint(b) & 63)
			s.owner[b] = nil
		}
		s.wheel[i] = slot[:0]
	}
}

// stepPacked is Step on the packed kernel: identical arbitration order,
// conflict precedence, counters and events, with the busy set kept as
// bits plus an expiry wheel instead of the scalar per-bank counters.
func (s *System) stepPacked() int {
	t := s.clock
	s.expireTo(t)
	order := s.arbitrationOrder()
	granted := 0

	for _, p := range order {
		if p.Src == nil || p.Src.Done() {
			continue
		}
		addr, ok := p.Src.Pending(t)
		if !ok {
			p.Count.Idle++
			continue
		}
		bank := s.mapper.Bank(addr)
		if bank < 0 || bank >= s.cfg.Banks {
			panic(fmt.Sprintf("memsys: mapper produced bank %d out of [0,%d)", bank, s.cfg.Banks))
		}
		sec := s.Section(bank)

		var kind ConflictKind
		var blocker *Port
		switch {
		case s.bankStamp[bank] == t:
			// Same precedence as the scalar kernel: a bank granted
			// earlier this clock was inactive when both ports requested
			// it, so the loser sees a simultaneous (different CPU) or
			// section (same CPU) conflict, not a bank conflict.
			w := s.bankWinner[bank]
			if w.CPU != p.CPU {
				kind, blocker = SimultaneousConflict, w
			} else {
				kind, blocker = SectionConflict, w
			}
		case s.packedBusy(bank):
			kind, blocker = BankConflict, s.owner[bank]
		case s.pathStamp[p.CPU][sec] == t:
			kind, blocker = SectionConflict, s.pathWinner[p.CPU][sec]
		}

		if kind == NoConflict {
			s.words[bank>>6] |= 1 << (uint(bank) & 63)
			exp := t + int64(s.cfg.BankBusy)
			s.expiry[bank] = exp
			slot := int(exp % int64(len(s.wheel)))
			s.wheel[slot] = append(s.wheel[slot], int32(bank))
			s.owner[bank] = p
			s.bankStamp[bank] = t
			s.bankWinner[bank] = p
			s.pathStamp[p.CPU][sec] = t
			s.pathWinner[p.CPU][sec] = p
			p.Src.Grant(t)
			p.Count.Grants++
			granted++
			if s.listener != nil {
				s.listener.Observe(Event{Clock: t, Port: p, Bank: bank, Kind: NoConflict})
			}
		} else {
			switch kind {
			case BankConflict:
				p.Count.Bank++
			case SimultaneousConflict:
				p.Count.Simultaneous++
			case SectionConflict:
				p.Count.Section++
			}
			if s.listener != nil {
				s.listener.Observe(Event{Clock: t, Port: p, Bank: bank, Kind: kind, Blocker: blocker})
			}
		}
	}

	s.advanceRotation(1)
	s.clock++
	return granted
}

// runPacked is Run on the packed kernel without a listener attached:
// per-clock stepping with skip-ahead over provably blocked stretches.
func (s *System) runPacked(n int64) int64 {
	var total int64
	end := s.clock + n
	for s.clock < end {
		g := s.stepPacked()
		total += int64(g)
		if g == 0 && s.clock < end {
			s.blockedStretch(end)
		}
	}
	return total
}

// blockedStretch implements the skip-ahead after a zero-grant clock: if
// every non-done port holds an infinite periodic stream whose requested
// bank is busy, nothing can change before the earliest requested expiry
// — a clock with zero grants classifies every delay as a bank conflict
// (simultaneous and section conflicts require a same-clock grant), the
// pending banks stay put, and the busy set only shrinks. The stretch's
// per-clock effects (one bank-conflict delay per port, the cyclic
// priority rotation, the clock) are applied in bulk, byte-identical to
// stepping each clock. Returns the clocks skipped (0 when no skip is
// provable: an idle, finite or data-dependent source, or a requested
// bank already free).
func (s *System) blockedStretch(end int64) int64 {
	next := int64(-1)
	active := 0
	for _, p := range s.ports {
		if p.Src == nil || p.Src.Done() {
			continue
		}
		ps, ok := p.Src.(periodicSource)
		if !ok || !ps.periodic() {
			return 0
		}
		addr, pending := p.Src.Pending(s.clock)
		if !pending {
			return 0
		}
		bank := s.mapper.Bank(addr)
		if !s.packedBusy(bank) {
			return 0
		}
		if next < 0 || s.expiry[bank] < next {
			next = s.expiry[bank]
		}
		active++
	}
	if active == 0 || next <= s.clock {
		return 0
	}
	if next > end {
		next = end
	}
	delta := next - s.clock
	for _, p := range s.ports {
		if p.Src == nil || p.Src.Done() {
			continue
		}
		p.Count.Bank += delta
	}
	s.advanceRotation(delta)
	s.clock = next
	return delta
}

// findCyclePacked is FindCycle on the packed kernel: the same per-clock
// recurrence search, hashing the packed state — priority rotation,
// per-port pending bank, and the busy banks with their remaining clocks
// — into a compact binary key instead of the scalar kernel's formatted
// string over all m banks. At most n_c·p banks are busy at once, so the
// key length tracks the port count, not the bank count; the two
// encodings are injective on the same state space, so the recurrence is
// found at the same clock and the returned window is identical to the
// scalar kernel's.
func (s *System) findCyclePacked(start, maxClocks int64) (Cycle, error) {
	np := len(s.ports)
	const stride = 5 // grants, bank, simultaneous, section, idle
	type packedSnap struct {
		clock  int64
		counts []int64
	}
	seen := make(map[string]packedSnap)
	key := make([]byte, 0, 16+4*np)
	counts := func() []int64 {
		cs := make([]int64, stride*np)
		for i, p := range s.ports {
			c := p.Count
			j := stride * i
			cs[j], cs[j+1], cs[j+2], cs[j+3], cs[j+4] =
				c.Grants, c.Bank, c.Simultaneous, c.Section, c.Idle
		}
		return cs
	}

	for s.clock < start+maxClocks {
		s.expireTo(s.clock)
		key = key[:0]
		key = binary.AppendVarint(key, int64(s.rr))
		for _, p := range s.ports {
			if addr, ok := p.Src.Pending(s.clock); ok {
				key = binary.AppendVarint(key, int64(s.mapper.Bank(addr)))
			} else {
				key = binary.AppendVarint(key, -1)
			}
		}
		for wi, word := range s.words {
			for word != 0 {
				b := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				key = binary.AppendVarint(key, int64(b))
				key = binary.AppendVarint(key, s.expiry[b]-s.clock)
			}
		}
		if prev, ok := seen[string(key)]; ok {
			cur := counts()
			c := Cycle{
				Lead:      prev.clock - start,
				Length:    s.clock - prev.clock,
				Grants:    make([]int64, np),
				Conflicts: make([]Counters, np),
			}
			for i := 0; i < np; i++ {
				j := stride * i
				c.Grants[i] = cur[j] - prev.counts[j]
				c.Conflicts[i] = Counters{
					Grants:       cur[j] - prev.counts[j],
					Bank:         cur[j+1] - prev.counts[j+1],
					Simultaneous: cur[j+2] - prev.counts[j+2],
					Section:      cur[j+3] - prev.counts[j+3],
					Idle:         cur[j+4] - prev.counts[j+4],
				}
			}
			return c, nil
		}
		seen[string(key)] = packedSnap{clock: s.clock, counts: counts()}
		s.stepPacked()
	}
	return Cycle{}, ErrNoCycle
}
