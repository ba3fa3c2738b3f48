package figures

import (
	"strings"
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/rat"
)

// Every figure with a paper-stated bandwidth must reproduce it exactly
// in the simulator's cyclic steady state.
func TestFiguresReproducePaperBandwidths(t *testing.T) {
	for _, f := range All() {
		bw, cyc, err := f.SteadyBandwidth()
		if err != nil {
			t.Fatalf("Fig. %s: %v", f.ID, err)
		}
		if f.WantBandwidth.Num != 0 && !bw.Equal(f.WantBandwidth) {
			t.Errorf("Fig. %s: b_eff = %s, paper says %s", f.ID, bw, f.WantBandwidth)
		}
		if cyc.Length <= 0 {
			t.Errorf("Fig. %s: degenerate cycle %+v", f.ID, cyc)
		}
	}
}

// Pinned simulator results for the figures whose bandwidth the paper
// shows only as a timeline: Fig. 4 (double conflict) settles at 1,
// Fig. 6 (inverted barrier) at 7/5. These guard against regressions in
// the arbitration semantics.
func TestFig4AndFig6PinnedBandwidths(t *testing.T) {
	bw4, _, err := Fig4().SteadyBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if !bw4.Equal(rat.One()) {
		t.Errorf("Fig. 4 b_eff = %s, pinned 1", bw4)
	}
	bw6, _, err := Fig6().SteadyBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if !bw6.Equal(rat.New(7, 5)) {
		t.Errorf("Fig. 6 b_eff = %s, pinned 7/5", bw6)
	}
}

// Fig. 3's cycle is a barrier: stream 2 delayed, stream 1 untouched.
func TestFig3IsABarrier(t *testing.T) {
	_, cyc, err := Fig3().SteadyBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Conflicts[0].Delays() != 0 {
		t.Errorf("stream 1 delayed %d clocks; a barrier leaves it free", cyc.Conflicts[0].Delays())
	}
	if cyc.Conflicts[1].Delays() == 0 {
		t.Error("stream 2 not delayed; not a barrier")
	}
	if cyc.Conflicts[1].Bank == 0 {
		t.Error("barrier delays must be bank conflicts")
	}
}

// Fig. 6 inverts the barrier: stream 1 delayed, stream 2 free.
func TestFig6IsInverted(t *testing.T) {
	_, cyc, err := Fig6().SteadyBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Conflicts[1].Delays() != 0 {
		t.Error("stream 2 should run free in the inverted barrier")
	}
	if cyc.Conflicts[0].Delays() == 0 {
		t.Error("stream 1 should be delayed in the inverted barrier")
	}
}

// Fig. 8a's linked conflict alternates bank and section conflicts.
func TestFig8aLinkedConflictMix(t *testing.T) {
	_, cyc, err := Fig8a().SteadyBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	var bank, section int64
	for _, c := range cyc.Conflicts {
		bank += c.Bank
		section += c.Section
	}
	if bank == 0 || section == 0 {
		t.Errorf("linked conflict needs both kinds; bank=%d section=%d", bank, section)
	}
}

// Figs. 8b and 9 fully resolve: no conflicts at all inside the cycle.
func TestResolvedFiguresHaveCleanCycles(t *testing.T) {
	for _, f := range []Figure{Fig8b(), Fig9()} {
		_, cyc, err := f.SteadyBandwidth()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cyc.Conflicts {
			if c.Delays() != 0 {
				t.Errorf("Fig. %s: port %d delayed %d clocks in cycle", f.ID, i, c.Delays())
			}
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	for _, f := range All() {
		out := f.Timeline(34)
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		want := f.Config.Banks
		if f.Config.Sections != 0 && f.Config.Sections != f.Config.Banks {
			want++ // the priority row of Figures 7-9
		}
		if len(lines) != want {
			t.Errorf("Fig. %s: %d rows, want %d", f.ID, len(lines), want)
		}
		if !strings.ContainsAny(out, "12") {
			t.Errorf("Fig. %s: timeline shows no service", f.ID)
		}
	}
	// Section figures carry the section prefix and the priority row.
	out := Fig8a().Timeline(10)
	if !strings.Contains(out, " - ") || !strings.Contains(out, "prio") {
		t.Error("Fig. 8a timeline missing section prefixes or priority row")
	}
	// Fixed priority shows all 1s; cyclic alternates.
	if strings.Contains(strings.SplitN(out, "\n", 2)[0], "2") {
		t.Error("Fig. 8a (fixed priority) priority row should be all 1s")
	}
	out8b := Fig8b().Timeline(10)
	if !strings.Contains(strings.SplitN(out8b, "\n", 2)[0], "2") {
		t.Error("Fig. 8b (cyclic priority) priority row should alternate")
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"2", "3", "4", "5", "6", "7", "8a", "8b", "9"} {
		f, err := ByID(id)
		if err != nil || f.ID != id {
			t.Errorf("ByID(%q) = %v, %v", id, f.ID, err)
		}
	}
	if _, err := ByID("10"); err == nil {
		t.Error("ByID(10) should fail (Fig. 10 is the triad experiment)")
	}
}

// The two-CPU figures place the streams on different CPUs, the
// one-CPU figures on the same CPU — this is what makes simultaneous
// vs. section conflicts possible in the right places.
func TestFigureCPUPlacement(t *testing.T) {
	for _, f := range All() {
		sameCPU := f.Streams[0].CPU == f.Streams[1].CPU
		hasSections := f.Config.Sections != 0 && f.Config.Sections != f.Config.Banks
		if hasSections && !sameCPU {
			t.Errorf("Fig. %s: section figure must use one CPU", f.ID)
		}
		if !hasSections && sameCPU {
			t.Errorf("Fig. %s: sectionless figure must use two CPUs", f.ID)
		}
		if f.Config.CPUs < f.Streams[len(f.Streams)-1].CPU+1 {
			t.Errorf("Fig. %s: CPU index out of range", f.ID)
		}
	}
}

// Sanity: building a figure twice yields independent systems.
func TestBuildIsolation(t *testing.T) {
	f := Fig2()
	a := f.Build()
	b := f.Build()
	if a.Run(50) == 0 {
		t.Error("no grants after 50 clocks")
	}
	if b.Clock() != 0 {
		t.Error("Build shares state between systems")
	}
	var _ *memsys.System = b
}
