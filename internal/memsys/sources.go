package memsys

import "fmt"

// StridedSource issues the equally spaced requests of a vector-mode
// access stream: addresses Addr, Addr+Stride, Addr+2*Stride, …
// Remaining < 0 makes the stream infinite (the analytic model's
// assumption of infinitely long access streams).
type StridedSource struct {
	Addr      int64 // address of the next (pending) request
	Stride    int64
	Remaining int // elements left to request; < 0 means infinite
}

// NewInfiniteStrided returns an endless strided source.
func NewInfiniteStrided(addr, stride int64) *StridedSource {
	return &StridedSource{Addr: addr, Stride: stride, Remaining: -1}
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
	if s.Remaining > 0 {
		s.Remaining--
	}
}

// Done implements Source.
func (s *StridedSource) Done() bool { return s.Remaining == 0 }

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
