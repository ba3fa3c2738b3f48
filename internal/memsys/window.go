package memsys

import "fmt"

// The paper's ports implement strict dynamic conflict resolution: a
// blocked request delays "along with all subsequent access requests of
// that port". This file provides the architectural what-if the
// ablation benches measure: a port with a small reorder window that may
// service a later request while the head is blocked. For a
// self-conflicting stride (r < n_c) this recovers the lost bandwidth —
// the next element maps to a different bank — quantifying how much of
// the paper's bandwidth loss is due to the in-order port rule rather
// than the banks themselves.

// WindowedSource extends Source with a lookahead window. Sources that
// implement it can be serviced out of order by ports created with
// AddWindowedPort.
type WindowedSource interface {
	Source
	// PendingWindow returns up to w pending addresses in stream order.
	PendingWindow(clock int64, w int) []int64
	// GrantIdx grants the i-th address of the window just returned.
	GrantIdx(clock int64, i int)
}

// WindowedStrided is a strided source whose elements may complete out
// of order within the lookahead window. Remaining < 0 means infinite.
type WindowedStrided struct {
	Addr      int64
	Stride    int64
	Remaining int

	// outstanding element offsets (relative to Addr) not yet granted,
	// in stream order.
	pending []int64
}

// NewWindowedStrided returns a finite out-of-order strided source.
func NewWindowedStrided(addr, stride int64, n int) *WindowedStrided {
	return &WindowedStrided{Addr: addr, Stride: stride, Remaining: n}
}

func (s *WindowedStrided) fill(w int) {
	for len(s.pending) < w {
		if s.Remaining == 0 {
			return
		}
		s.pending = append(s.pending, s.Addr)
		s.Addr += s.Stride
		if s.Remaining > 0 {
			s.Remaining--
		}
	}
}

// Pending implements Source (head of the window).
func (s *WindowedStrided) Pending(int64) (int64, bool) {
	s.fill(1)
	if len(s.pending) == 0 {
		return 0, false
	}
	return s.pending[0], true
}

// Grant implements Source (grants the head).
func (s *WindowedStrided) Grant(clock int64) { s.GrantIdx(clock, 0) }

// Done implements Source.
func (s *WindowedStrided) Done() bool {
	return s.Remaining == 0 && len(s.pending) == 0
}

// PendingWindow implements WindowedSource.
func (s *WindowedStrided) PendingWindow(_ int64, w int) []int64 {
	s.fill(w)
	if len(s.pending) < w {
		w = len(s.pending)
	}
	return s.pending[:w]
}

// GrantIdx implements WindowedSource.
func (s *WindowedStrided) GrantIdx(_ int64, i int) {
	if i < 0 || i >= len(s.pending) {
		panic(fmt.Sprintf("memsys: GrantIdx(%d) outside window of %d", i, len(s.pending)))
	}
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
}

// WindowedSequence is a fixed address list (gather/scatter indices)
// whose elements may complete out of order within the window.
type WindowedSequence struct {
	Addrs   []int64
	next    int
	pending []int64
}

// NewWindowedSequence returns an out-of-order sequence source.
func NewWindowedSequence(addrs []int64) *WindowedSequence {
	return &WindowedSequence{Addrs: addrs}
}

func (s *WindowedSequence) fill(w int) {
	for len(s.pending) < w && s.next < len(s.Addrs) {
		s.pending = append(s.pending, s.Addrs[s.next])
		s.next++
	}
}

// Pending implements Source.
func (s *WindowedSequence) Pending(int64) (int64, bool) {
	s.fill(1)
	if len(s.pending) == 0 {
		return 0, false
	}
	return s.pending[0], true
}

// Grant implements Source.
func (s *WindowedSequence) Grant(clock int64) { s.GrantIdx(clock, 0) }

// Done implements Source.
func (s *WindowedSequence) Done() bool {
	return s.next >= len(s.Addrs) && len(s.pending) == 0
}

// PendingWindow implements WindowedSource.
func (s *WindowedSequence) PendingWindow(_ int64, w int) []int64 {
	s.fill(w)
	if len(s.pending) < w {
		w = len(s.pending)
	}
	return s.pending[:w]
}

// GrantIdx implements WindowedSource.
func (s *WindowedSequence) GrantIdx(_ int64, i int) {
	if i < 0 || i >= len(s.pending) {
		panic(fmt.Sprintf("memsys: GrantIdx(%d) outside window of %d", i, len(s.pending)))
	}
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
}

// AddWindowedPort attaches a source serviced through a reorder window
// of the given width (window = 1 is the paper's in-order rule). The
// port tries the window's addresses in stream order each clock and
// services the first conflict-free one; if none fits, the delay is
// classified by the head request.
func (s *System) AddWindowedPort(cpu int, label string, src WindowedSource, window int) *Port {
	if window < 1 {
		panic(fmt.Sprintf("memsys: window %d", window))
	}
	return s.AddPort(cpu, label, &windowAdapter{src: src, window: window, sys: s})
}

// windowAdapter presents the first serviceable window entry as the
// port's pending request. It peeks at the system's bank/path state,
// which is sound because Pending is invoked during this clock's
// arbitration, after earlier-priority grants have been recorded.
type windowAdapter struct {
	src    WindowedSource
	window int
	sys    *System
	// chosen index for the current clock, consumed by Grant.
	chosenClock int64
	chosenIdx   int
	chosenOK    bool
}

// Pending implements Source.
func (a *windowAdapter) Pending(clock int64) (int64, bool) {
	win := a.src.PendingWindow(clock, a.window)
	if len(win) == 0 {
		return 0, false
	}
	for i, addr := range win {
		bank := a.sys.mapper.Bank(addr)
		if a.sys.busy[bank] > 0 || a.sys.bankStamp[bank] == clock {
			continue
		}
		a.chosenClock, a.chosenIdx, a.chosenOK = clock, i, true
		return addr, true
	}
	// Nothing serviceable: present the head so the delay is classified
	// against the paper's in-order semantics.
	a.chosenClock, a.chosenIdx, a.chosenOK = clock, 0, true
	return win[0], true
}

// Grant implements Source.
func (a *windowAdapter) Grant(clock int64) {
	if !a.chosenOK || a.chosenClock != clock {
		panic("memsys: windowAdapter.Grant without matching Pending")
	}
	a.src.GrantIdx(clock, a.chosenIdx)
	a.chosenOK = false
}

// Done implements Source.
func (a *windowAdapter) Done() bool { return a.src.Done() }
