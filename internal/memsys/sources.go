package memsys

import (
	"fmt"

	"ivm/internal/stream"
)

// StridedSource issues the equally spaced requests of a vector-mode
// access stream: addresses Addr, Addr+Stride, Addr+2*Stride, …
// Remaining < 0 makes the stream infinite (the analytic model's
// assumption of infinitely long access streams).
type StridedSource struct {
	Addr      int64 // address of the next (pending) request
	Stride    int64
	Remaining int // elements left to request; < 0 means infinite

	issued int64
}

// NewStrided returns a finite strided source of n elements.
func NewStrided(addr, stride int64, n int) *StridedSource {
	return &StridedSource{Addr: addr, Stride: stride, Remaining: n}
}

// NewInfiniteStrided returns an endless strided source.
func NewInfiniteStrided(addr, stride int64) *StridedSource {
	return &StridedSource{Addr: addr, Stride: stride, Remaining: -1}
}

// FromStream converts a bank-space stream.Stream into a source whose
// addresses are the bank numbers themselves (valid with the modulo
// mapper over the same m).
func FromStream(st stream.Stream) *StridedSource {
	n := st.Length
	if st.IsInfinite() {
		n = -1
	}
	return &StridedSource{Addr: int64(st.Start), Stride: int64(st.Distance), Remaining: n}
}

// Pending implements Source.
func (s *StridedSource) Pending(int64) (int64, bool) {
	if s.Remaining == 0 {
		return 0, false
	}
	return s.Addr, true
}

// Grant implements Source.
func (s *StridedSource) Grant(int64) {
	if s.Remaining == 0 {
		panic("memsys: Grant on exhausted StridedSource")
	}
	s.Addr += s.Stride
	s.issued++
	if s.Remaining > 0 {
		s.Remaining--
	}
}

// Done implements Source.
func (s *StridedSource) Done() bool { return s.Remaining == 0 }

// Issued returns how many requests have been granted so far.
func (s *StridedSource) Issued() int64 { return s.issued }

// periodic marks the source as safe for state-hash cycle detection:
// under ModuloMapper, its future bank sequence is a pure function of
// the pending bank.
func (s *StridedSource) periodic() bool { return s.Remaining < 0 }

// IdleSource never issues; useful as a placeholder port.
type IdleSource struct{}

// Pending implements Source.
func (IdleSource) Pending(int64) (int64, bool) { return 0, false }

// Grant implements Source.
func (IdleSource) Grant(int64) { panic("memsys: Grant on IdleSource") }

// Done implements Source.
func (IdleSource) Done() bool { return true }

// DelayedSource wraps a source so that it starts issuing only at clock
// StartAt. It models a relative position in time, which the paper notes
// "can be transformed to a relative position in space".
type DelayedSource struct {
	StartAt int64
	Inner   Source
}

// Pending implements Source.
func (d *DelayedSource) Pending(clock int64) (int64, bool) {
	if clock < d.StartAt {
		return 0, false
	}
	return d.Inner.Pending(clock)
}

// Grant implements Source.
func (d *DelayedSource) Grant(clock int64) { d.Inner.Grant(clock) }

// Done implements Source.
func (d *DelayedSource) Done() bool { return d.Inner.Done() }

// SequenceSource issues a fixed list of addresses in order; useful for
// gather/scatter-style index streams and for tests.
type SequenceSource struct {
	Addrs []int64
	next  int
}

// Pending implements Source.
func (s *SequenceSource) Pending(int64) (int64, bool) {
	if s.next >= len(s.Addrs) {
		return 0, false
	}
	return s.Addrs[s.next], true
}

// Grant implements Source.
func (s *SequenceSource) Grant(int64) {
	if s.next >= len(s.Addrs) {
		panic("memsys: Grant on exhausted SequenceSource")
	}
	s.next++
}

// Done implements Source.
func (s *SequenceSource) Done() bool { return s.next >= len(s.Addrs) }

// Position returns how many of the sequence's requests were granted.
func (s *SequenceSource) Position() int { return s.next }

func describeSource(src Source) string {
	switch t := src.(type) {
	case *StridedSource:
		if t.Remaining < 0 {
			return fmt.Sprintf("strided{addr=%d stride=%d inf}", t.Addr, t.Stride)
		}
		return fmt.Sprintf("strided{addr=%d stride=%d left=%d}", t.Addr, t.Stride, t.Remaining)
	case *SequenceSource:
		return fmt.Sprintf("sequence{%d/%d}", t.next, len(t.Addrs))
	case IdleSource:
		return "idle"
	default:
		return fmt.Sprintf("%T", src)
	}
}
