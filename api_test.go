package ivm_test

import (
	"strings"
	"testing"

	"ivm"
)

func TestFacadeAnalyze(t *testing.T) {
	a := ivm.Analyze(12, 3, 1, 7)
	if a.Regime != ivm.RegimeConflictFree || a.Bandwidth.String() != "2" {
		t.Fatalf("Analyze(12, 3, 1, 7) = %s, b_eff %s", a.Regime, a.Bandwidth)
	}
	if r := ivm.ReturnNumber(16, 6); r != 8 {
		t.Fatalf("ReturnNumber(16, 6) = %d", r)
	}
	if b := ivm.SingleStreamBandwidth(16, 4, 8); b.String() != "1/2" {
		t.Fatalf("SingleStreamBandwidth(16, 4, 8) = %s", b)
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
	if bw.String() != "7/6" {
		t.Fatalf("b_eff = %s", bw)
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
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Fatalf("timeline shows no service by both streams:\n%s", out)
	}
}

func TestFacadeSweepEngine(t *testing.T) {
	seq := ivm.NewSweepEngine(ivm.SweepOptions{Workers: 1}).Grid(12, 3)
	eng := ivm.NewSweepEngine(ivm.SweepOptions{Workers: 4})
	par := eng.Grid(12, 3)
	if len(par) != len(seq) {
		t.Fatalf("4-worker grid has %d pairs, 1-worker %d", len(par), len(seq))
	}
	for i := range seq {
		if !par[i].SimMin.Equal(seq[i].SimMin) || !par[i].SimMax.Equal(seq[i].SimMax) {
			t.Fatalf("pair %d differs: %+v vs %+v", i, par[i], seq[i])
		}
	}
	m := eng.Metrics()
	if m.PairsSwept != int64(len(par)) || m.CacheHits == 0 {
		t.Fatalf("metrics %+v", m)
	}
	lo, hi := ivm.PairBandwidthBounds(12, 3, 1, 7)
	if lo.String() != "1/3" || hi.String() != "2" {
		t.Fatalf("bounds [%s, %s]", lo, hi)
	}
}

func TestFacadeSpecSweep(t *testing.T) {
	pair := ivm.SweepConfigSpec{M: 8, NC: 2, Streams: []ivm.SweepStream{
		{D: 1, CPU: 0},
		{D: 2, CPU: 1, Sweep: true},
	}}
	if fam := pair.Family(); fam != "pair" {
		t.Fatalf("pair spec compiles into family %q", fam)
	}
	seq := ivm.NewSweepEngine(ivm.SweepOptions{Workers: 1}).SpecGrid([]ivm.SweepConfigSpec{pair})[0]
	eng := ivm.NewSweepEngine(ivm.SweepOptions{Workers: 2})
	par := eng.SpecGrid([]ivm.SweepConfigSpec{pair})[0]
	if !par.SimMin.Equal(seq.SimMin) || !par.SimMax.Equal(seq.SimMax) || par.Starts != seq.Starts {
		t.Fatalf("2-worker spec sweep %+v != 1-worker %+v", par, seq)
	}
	four := ivm.SweepConfigSpec{M: 4, NC: 1, Streams: []ivm.SweepStream{
		{D: 1, CPU: 0},
		{D: 1, CPU: 1, Sweep: true},
		{D: 2, CPU: 2, Sweep: true},
		{D: 3, CPU: 3, Sweep: true},
	}}
	if fam := four.Family(); fam != "stream4" {
		t.Fatalf("four-stream spec compiles into family %q", fam)
	}
	if r := eng.SpecGrid([]ivm.SweepConfigSpec{four})[0]; r.Starts != 64 || r.Violations != 0 {
		t.Fatalf("four-stream sweep %+v", r)
	}
}
