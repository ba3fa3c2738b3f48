// Package trace records per-clock, per-bank activity of a memsys
// simulation and renders it in the timeline style of Figures 2–9 of
// Oed & Lange (1985): one row per bank, one column per clock period,
// where
//
//	1,2,…  the bank is servicing an access of that stream (repeated
//	       for the n_c clocks the bank stays active),
//	<      the higher-numbered stream is delayed at this bank by the
//	       lower-numbered one,
//	>      the lower-numbered stream is delayed by the higher one,
//	*      the stream is delayed by a section conflict,
//	.      the bank is idle.
//
// Delay markers overwrite service digits in the cell where the delayed
// request is waiting, exactly as in the paper's figures.
package trace

import (
	"fmt"
	"strings"

	"ivm/internal/memsys"
)

// Cell codes: zero means idle.
type cell struct {
	label byte // service digit, 0 if none
	mark  byte // delay marker, 0 if none
}

// Recorder implements memsys.Listener and captures a window of clocks.
type Recorder struct {
	banks    int
	busy     int // n_c: how many cells one grant paints
	from, to int64
	grid     map[int64]*column
}

type column struct {
	cells []cell
}

// NewRecorder records clocks in [from, to) for a system with the given
// bank count and bank busy time.
func NewRecorder(banks, bankBusy int, from, to int64) *Recorder {
	if banks <= 0 || bankBusy <= 0 || to < from {
		panic(fmt.Sprintf("trace: bad recorder window banks=%d busy=%d [%d,%d)", banks, bankBusy, from, to))
	}
	return &Recorder{banks: banks, busy: bankBusy, from: from, to: to, grid: make(map[int64]*column)}
}

// Attach creates a recorder sized for the system and installs it as the
// system's listener.
func Attach(sys *memsys.System, from, to int64) *Recorder {
	r := NewRecorder(sys.Config().Banks, sys.Config().BankBusy, from, to)
	sys.SetListener(r)
	return r
}

func (r *Recorder) col(t int64) *column {
	c := r.grid[t]
	if c == nil {
		c = &column{cells: make([]cell, r.banks)}
		r.grid[t] = c
	}
	return c
}

// Observe implements memsys.Listener.
func (r *Recorder) Observe(e memsys.Event) {
	if e.Kind == memsys.NoConflict {
		label := labelByte(e.Port)
		for dt := 0; dt < r.busy; dt++ {
			t := e.Clock + int64(dt)
			if t < r.from || t >= r.to {
				continue
			}
			r.col(t).cells[e.Bank].label = label
		}
		return
	}
	if e.Clock < r.from || e.Clock >= r.to {
		return
	}
	r.col(e.Clock).cells[e.Bank].mark = markFor(e)
}

func labelByte(p *memsys.Port) byte {
	if p.Label != "" {
		return p.Label[0]
	}
	return byte('1' + p.ID%9)
}

func markFor(e memsys.Event) byte {
	if e.Kind == memsys.SectionConflict {
		return '*'
	}
	// '<' : delay of the higher label by the lower one (paper: "<"
	// depicts a delay of 2 by 1); '>' the other way round.
	if e.Blocker != nil && labelByte(e.Blocker) > labelByte(e.Port) {
		return '>'
	}
	return '<'
}

// Render produces the timeline. Each output line is
// "bank <j>  <cells...>"; delay markers overwrite service digits.
func (r *Recorder) Render() string {
	var b strings.Builder
	width := len(fmt.Sprintf("%d", r.banks-1))
	for bank := 0; bank < r.banks; bank++ {
		fmt.Fprintf(&b, "%*d ", width, bank)
		for t := r.from; t < r.to; t++ {
			b.WriteByte(r.cellAt(bank, t))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderWithSections prefixes every row with the bank's section, in the
// style of Figures 7–9 ("section bank").
func (r *Recorder) RenderWithSections(section func(bank int) int) string {
	var b strings.Builder
	width := len(fmt.Sprintf("%d", r.banks-1))
	for bank := 0; bank < r.banks; bank++ {
		fmt.Fprintf(&b, "%d - %*d ", section(bank), width, bank)
		for t := r.from; t < r.to; t++ {
			b.WriteByte(r.cellAt(bank, t))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderWithPriority prepends the priority row of Figures 8–9: for each
// clock period, the label of the port holding the highest priority
// (all "1"s under a fixed rule, rotating under the cyclic rule).
// holder(t) must return the priority holder's label byte at clock t.
func (r *Recorder) RenderWithPriority(section func(bank int) int, holder func(t int64) byte) string {
	var b strings.Builder
	width := len(fmt.Sprintf("%d", r.banks-1))
	fmt.Fprintf(&b, "prio %*s ", width, "")
	for t := r.from; t < r.to; t++ {
		b.WriteByte(holder(t))
	}
	b.WriteByte('\n')
	b.WriteString(r.RenderWithSections(section))
	return b.String()
}

func (r *Recorder) cellAt(bank int, t int64) byte {
	c := r.grid[t]
	if c == nil {
		return '.'
	}
	cl := c.cells[bank]
	if cl.mark != 0 {
		return cl.mark
	}
	if cl.label != 0 {
		return cl.label
	}
	return '.'
}

// Legend returns the marker legend used by Render.
func Legend() string {
	return "digits: bank servicing that stream; '<' delay of higher stream by lower; '>' delay of lower by higher; '*' section conflict; '.' idle"
}
