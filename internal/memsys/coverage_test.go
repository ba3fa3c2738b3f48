package memsys

import (
	"strings"
	"testing"
)

func TestEnumStrings(t *testing.T) {
	if CyclicSections.String() != "cyclic" || ConsecutiveSections.String() != "consecutive" {
		t.Error("SectionMapping strings")
	}
	if !strings.Contains(SectionMapping(9).String(), "9") {
		t.Error("unknown SectionMapping string")
	}
	if FixedPriority.String() != "fixed" || CyclicPriority.String() != "cyclic" {
		t.Error("PriorityRule strings")
	}
	if !strings.Contains(PriorityRule(9).String(), "9") {
		t.Error("unknown PriorityRule string")
	}
	for k, want := range map[ConflictKind]string{
		NoConflict: "none", BankConflict: "bank",
		SimultaneousConflict: "simultaneous", SectionConflict: "section",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(ConflictKind(9).String(), "9") {
		t.Error("unknown ConflictKind string")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 3, CPUs: 1})
	p := sys.AddPort(0, "1", NewInfiniteStrided(5, 0))
	if sys.BankOwner(5) != nil || sys.busy[5] != 0 {
		t.Error("idle bank reports owner/busy")
	}
	sys.Step()
	// The grant at clock 0 leaves the bank busy for 2 more clocks.
	if sys.busy[5] != 2 {
		t.Errorf("bank 5 busy %d clocks after one step", sys.busy[5])
	}
	if sys.BankOwner(5) != p {
		t.Error("BankOwner(5) != granting port")
	}
	if sys.PriorityHolderAt(0) != p || sys.PriorityHolderAt(7) != p {
		t.Error("fixed priority holder")
	}
	empty := New(Config{Banks: 4, BankBusy: 1})
	if empty.PriorityHolderAt(0) != nil {
		t.Error("empty system has a priority holder")
	}
}

func TestPriorityHolderCyclic(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 1, CPUs: 1, Priority: CyclicPriority})
	a := sys.AddPort(0, "1", IdleSource{})
	b := sys.AddPort(0, "2", IdleSource{})
	if sys.PriorityHolderAt(0) != a || sys.PriorityHolderAt(1) != b || sys.PriorityHolderAt(2) != a {
		t.Error("cyclic priority holder rotation")
	}
}

func TestIdleSourceGrantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IdleSource.Grant did not panic")
		}
	}()
	IdleSource{}.Grant(0)
}

func TestStridedGrantExhaustedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grant on exhausted source did not panic")
		}
	}()
	s := &StridedSource{Addr: 0, Stride: 1, Remaining: 1}
	s.Grant(0)
	s.Grant(1)
}

func TestSequenceGrantExhaustedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grant on exhausted sequence did not panic")
		}
	}()
	s := &SequenceSource{Addrs: []int64{1}}
	s.Grant(0)
	s.Grant(1)
}

func TestSequencePosition(t *testing.T) {
	s := &SequenceSource{Addrs: []int64{4, 5}}
	if s.next != 0 {
		t.Fatal("position != 0")
	}
	s.Grant(0)
	if s.next != 1 {
		t.Fatal("position != 1")
	}
}

func TestDescribeSource(t *testing.T) {
	cases := []struct {
		src  Source
		want string
	}{
		{NewInfiniteStrided(1, 2), "strided{addr=1 stride=2 inf}"},
		{&StridedSource{Addr: 1, Stride: 2, Remaining: 3}, "strided{addr=1 stride=2 left=3}"},
		{&SequenceSource{Addrs: []int64{1, 2}}, "sequence{0/2}"},
		{IdleSource{}, "idle"},
	}
	for _, c := range cases {
		if got := describeSource(c.src); got != c.want {
			t.Errorf("describeSource = %q, want %q", got, c.want)
		}
	}
	if got := describeSource(&delayedSource{}); !strings.Contains(got, "delayedSource") {
		t.Errorf("fallback description: %q", got)
	}
}

// Windowed sources used through the plain Source interface (head-only).
func TestWindowedSourcesAsPlainSources(t *testing.T) {
	ws := NewWindowedStrided(0, 2, 3)
	addr, ok := ws.Pending(0)
	if !ok || addr != 0 {
		t.Fatalf("Pending = %d, %v", addr, ok)
	}
	ws.Grant(0)
	if addr, _ := ws.Pending(1); addr != 2 {
		t.Fatalf("after grant: %d", addr)
	}
	inf := &WindowedStrided{Addr: 0, Stride: 1, Remaining: -1}
	if inf.Done() {
		t.Fatal("infinite windowed source done")
	}

	seq := NewWindowedSequence([]int64{7, 8})
	if addr, ok := seq.Pending(0); !ok || addr != 7 {
		t.Fatalf("sequence Pending = %d, %v", addr, ok)
	}
	seq.Grant(0)
	if addr, ok := seq.Pending(1); !ok || addr != 8 {
		t.Fatalf("sequence Pending = %d, %v", addr, ok)
	}
	seq.Grant(1)
	if !seq.Done() {
		t.Fatal("sequence not drained")
	}
	if _, ok := seq.Pending(2); ok {
		t.Fatal("drained sequence still pending")
	}
}
