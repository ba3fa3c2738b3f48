package trace

import (
	"strings"
	"testing"

	"ivm/internal/memsys"
)

func TestRecorderSingleStream(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1})
	rec := Attach(sys, 0, 8)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(8)
	// d=1, nc=2: bank 0 serviced at clocks 0-1, 4-5; bank 1 at 1-2, 5-6...
	if got := row(rec, 0); got != "11..11.." {
		t.Errorf("Row(0) = %q", got)
	}
	if got := row(rec, 1); got != ".11..11." {
		t.Errorf("Row(1) = %q", got)
	}
	if got := row(rec, 3); got != "...11..1" {
		t.Errorf("Row(3) = %q", got)
	}
}

func TestRecorderDelayMarkers(t *testing.T) {
	// Self-conflicting stream: m=4, d=2, nc=4 -> revisits bank 0 after
	// 2 clocks and waits 2 clocks ('<' marks are not used for
	// single-stream bank conflicts against itself... the blocker is the
	// same port, so the mark is '<' with equal labels).
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 4, CPUs: 2})
	rec := Attach(sys, 0, 12)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 1))
	sys.Run(12)
	// Port 2 is blocked at bank 0 by port 1 (simultaneous conflict at
	// clock 0, bank conflicts after): '<' because blocker label 1 < 2.
	row0 := row(rec, 0)
	if !strings.Contains(row0, "<") {
		t.Errorf("Row(0) = %q, expected '<' delay marks", row0)
	}
	marks := countMarks(rec)
	if marks['<'] == 0 {
		t.Errorf("marks = %v, expected '<'", marks)
	}
	if marks['*'] != 0 {
		t.Errorf("marks = %v, no section conflicts expected", marks)
	}
}

func TestRecorderSectionMarker(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 8, Sections: 2, BankBusy: 2, CPUs: 1})
	rec := Attach(sys, 0, 6)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1)) // bank 0, section 0
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(2, 1)) // bank 2, section 0
	sys.Run(6)
	marks := countMarks(rec)
	if marks['*'] == 0 {
		t.Errorf("marks = %v, expected '*' section-conflict marks", marks)
	}
}

func TestRenderShape(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 3, BankBusy: 1, CPUs: 1})
	rec := Attach(sys, 0, 5)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(5)
	out := rec.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("Render produced %d lines, want 3:\n%s", len(lines), out)
	}
	for _, ln := range lines {
		// "j " prefix plus 5 cells.
		if len(ln) != 2+5 {
			t.Fatalf("line %q has wrong width", ln)
		}
	}
	if lines[0] != "0 1..1." {
		t.Errorf("line 0 = %q", lines[0])
	}
}

func TestRenderWithSections(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, Sections: 2, BankBusy: 1, CPUs: 1})
	rec := Attach(sys, 0, 4)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(4)
	out := rec.RenderWithSections(sys.Section)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "0 - 0 ") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1 - 1 ") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

func TestWindowClipping(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 3, CPUs: 1})
	rec := Attach(sys, 2, 6) // only clocks [2, 6)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(8)
	// Bank 0 is serviced clocks 0-2 and 4-6; visible: clock 2 tail of
	// the first service and clocks 4-5 of the second.
	if got := row(rec, 0); got != "1.11" {
		t.Errorf("Row(0) = %q", got)
	}
}

func TestNewRecorderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad window did not panic")
		}
	}()
	NewRecorder(4, 2, 10, 5)
}

func TestRenderWithPriority(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, Sections: 2, BankBusy: 1, CPUs: 1, Priority: memsys.CyclicPriority})
	rec := Attach(sys, 0, 6)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(1, 1))
	sys.Run(6)
	out := rec.RenderWithPriority(sys.Section, func(t int64) byte {
		p := sys.PriorityHolderAt(t)
		return p.Label[0]
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "prio") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.Contains(lines[0], "121212") {
		t.Fatalf("cyclic priority row %q", lines[0])
	}
}

func TestLegendMentionsAllMarks(t *testing.T) {
	l := Legend()
	for _, tok := range []string{"<", ">", "*", "."} {
		if !strings.Contains(l, tok) {
			t.Errorf("legend misses %q", tok)
		}
	}
}

// row returns the rendered cells of a single bank row as a string.
func row(r *Recorder, bank int) string {
	var b strings.Builder
	for t := r.from; t < r.to; t++ {
		b.WriteByte(r.cellAt(bank, t))
	}
	return b.String()
}

// countMarks counts occurrences of each marker byte over the window.
func countMarks(r *Recorder) map[byte]int {
	counts := make(map[byte]int)
	for bank := 0; bank < r.banks; bank++ {
		for t := r.from; t < r.to; t++ {
			counts[r.cellAt(bank, t)]++
		}
	}
	return counts
}
