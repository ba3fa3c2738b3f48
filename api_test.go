package ivm_test

import (
	"strings"
	"testing"

	"ivm"
)

func TestFacadeAnalyze(t *testing.T) {
	a := ivm.Analyze(12, 3, 1, 7)
	if a.Regime != ivm.RegimeConflictFree {
		t.Fatalf("regime = %s", a.Regime)
	}
	if !a.Bandwidth.Equal(ivm.NewRational(2, 1)) {
		t.Fatalf("bandwidth = %s", a.Bandwidth)
	}
	if ivm.ReturnNumber(16, 6) != 8 {
		t.Fatal("ReturnNumber")
	}
	if !ivm.SingleStreamBandwidth(16, 4, 8).Equal(ivm.NewRational(1, 2)) {
		t.Fatal("SingleStreamBandwidth")
	}
	if !ivm.ConflictFreeCondition(12, 3, 1, 7) {
		t.Fatal("ConflictFreeCondition")
	}
	if !ivm.BarrierBandwidth(1, 6).Equal(ivm.NewRational(7, 6)) {
		t.Fatal("BarrierBandwidth")
	}
	if !ivm.SaturationBound(16, 4, 6).Equal(ivm.NewRational(4, 1)) {
		t.Fatal("SaturationBound")
	}
	if !ivm.ConflictFreeAt(12, 3, 0, 1, 3, 7) {
		t.Fatal("ConflictFreeAt")
	}
	if !ivm.PairIsomorphic(16, 1, 3, 11, 1) {
		t.Fatal("PairIsomorphic")
	}
}

func TestFacadeSimulation(t *testing.T) {
	bw, err := ivm.SteadyBandwidth(
		ivm.MemConfig{Banks: 13, BankBusy: 6, CPUs: 2}, 1<<20,
		ivm.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		ivm.StreamSpec{Start: 0, Distance: 6, CPU: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !bw.Equal(ivm.NewRational(7, 6)) {
		t.Fatalf("b_eff = %s", bw)
	}

	sys := ivm.NewSystem(ivm.MemConfig{Banks: 8, BankBusy: 2, CPUs: 1})
	p := sys.AddPort(0, "1", ivm.FiniteStream(0, 1, 32))
	clocks, done := sys.RunUntilDone(1000)
	if !done || clocks != 32 || p.Count.Grants != 32 {
		t.Fatalf("clocks=%d done=%v grants=%d", clocks, done, p.Count.Grants)
	}
}

func TestFacadeSkewedSystem(t *testing.T) {
	sys := ivm.NewSkewedSystem(ivm.MemConfig{Banks: 16, BankBusy: 4, CPUs: 1}, 1)
	sys.AddPort(0, "1", ivm.InfiniteStream(0, 16))
	if grants := sys.Run(256); grants != 256 {
		t.Fatalf("grants = %d; linear skew should fix stride 16", grants)
	}
}

func TestFacadeTimeline(t *testing.T) {
	out := ivm.Timeline(ivm.MemConfig{Banks: 12, BankBusy: 3, CPUs: 2}, 24,
		ivm.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		ivm.StreamSpec{Start: 3, Distance: 7, CPU: 1},
	)
	if len(strings.Split(strings.TrimRight(out, "\n"), "\n")) != 12 {
		t.Fatalf("timeline:\n%s", out)
	}
	if !strings.ContainsAny(out, "12") {
		t.Fatal("timeline shows no service")
	}
}

func TestFacadeFigures(t *testing.T) {
	figs := ivm.Figures()
	if len(figs) != 9 {
		t.Fatalf("figures = %d", len(figs))
	}
	f, err := ivm.FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	bw, _, err := f.SteadyBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if !bw.Equal(ivm.NewRational(3, 2)) {
		t.Fatalf("Fig. 8a b_eff = %s", bw)
	}
}

func TestFacadeSweepEngine(t *testing.T) {
	seq := ivm.SweepGrid(12, 3)
	eng := ivm.NewSweepEngine(ivm.SweepOptions{Workers: 4})
	par := eng.Grid(12, 3)
	if len(par) != len(seq) {
		t.Fatalf("engine grid has %d pairs, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if !par[i].SimMin.Equal(seq[i].SimMin) || !par[i].SimMax.Equal(seq[i].SimMax) {
			t.Fatalf("pair %d differs: %+v vs %+v", i, par[i], seq[i])
		}
	}
	s := ivm.SummariseSweep(12, 3, par)
	if s.Pairs != len(par) || len(s.Disagree) != 0 {
		t.Fatalf("summary %+v", s)
	}
	m := eng.Metrics()
	if m.PairsSwept != int64(len(par)) || m.CacheHits == 0 {
		t.Fatalf("metrics %+v", m)
	}
	lo, hi := ivm.PairBandwidthBounds(12, 3, 1, 7)
	if !lo.Equal(ivm.NewRational(1, 3)) || !hi.Equal(ivm.NewRational(2, 1)) {
		t.Fatalf("bounds [%s, %s]", lo, hi)
	}
}

func TestFacadeSpecSweep(t *testing.T) {
	spec := ivm.NewPairSpec(8, 2, 1, 2)
	if fam := spec.Family(); fam != "pair" {
		t.Fatalf("pair spec compiles into family %q", fam)
	}
	seq := ivm.SweepSpecGrid([]ivm.SweepConfigSpec{spec})[0]
	eng := ivm.NewSweepEngine(ivm.SweepOptions{Workers: 2})
	par := eng.SpecGrid([]ivm.SweepConfigSpec{spec})[0]
	if !par.SimMin.Equal(seq.SimMin) || !par.SimMax.Equal(seq.SimMax) || par.Starts != seq.Starts {
		t.Fatalf("engine spec sweep %+v != sequential %+v", par, seq)
	}
	four := ivm.NewNStreamSpec(4, 1, []int{1, 1, 2, 3})
	if fam := four.Family(); fam != "stream4" {
		t.Fatalf("four-stream spec compiles into family %q", fam)
	}
	r := eng.SpecGrid([]ivm.SweepConfigSpec{four})[0]
	if r.Starts != 64 || r.Violations != 0 {
		t.Fatalf("four-stream sweep %+v", r)
	}
	grid := ivm.SweepNStreamGrid(4, 1, 3)
	if s := ivm.SummariseSweepSpecGrid(grid); s.Violations != 0 || s.Starts == 0 {
		t.Fatalf("three-stream grid summary %+v", s)
	}
}

func TestFacadeTriad(t *testing.T) {
	cfg := ivm.DefaultMachine()
	if cfg.VectorLength != 64 {
		t.Fatalf("default VL = %d", cfg.VectorLength)
	}
	if mc := ivm.XMPMemConfig(); mc.Banks != 16 || mc.BankBusy != 4 {
		t.Fatalf("XMP mem config: %+v", mc)
	}
	r := ivm.TriadExperiment(1, 128, false, cfg)
	if r.Clocks <= 0 || r.Simultaneous != 0 {
		t.Fatalf("triad result %+v", r)
	}
	sweep := ivm.TriadSweep(2, 128, true, cfg)
	if len(sweep) != 2 || sweep[0].INC != 1 {
		t.Fatalf("sweep %+v", sweep)
	}
}

func TestFacadeTriadVerdict(t *testing.T) {
	canonical, regime, triadWins, isBarrier := ivm.TriadVerdict(6)
	if canonical != [2]int{2, 3} {
		t.Fatalf("canonical = %v", canonical)
	}
	if regime != ivm.RegimeUniqueBarrier || !triadWins || !isBarrier {
		t.Fatalf("verdict: %s wins=%v barrier=%v", regime, triadWins, isBarrier)
	}
	_, regime, _, isBarrier = ivm.TriadVerdict(9)
	if regime != ivm.RegimeConflictFree || isBarrier {
		t.Fatalf("INC=9 verdict: %s barrier=%v", regime, isBarrier)
	}
}
