package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGeneratedInputsFollowTheSeed(t *testing.T) {
	for _, gen := range []struct {
		name string
		make func(seed uint64) any
	}{
		{"universe", func(seed uint64) any { return Universe(seed, 512) }},
		{"batch", func(seed uint64) any { return Batch(seed, 3) }},
	} {
		a, b := marshal(t, gen.make(1)), marshal(t, gen.make(1))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different inputs on two calls", gen.name)
		}
		if c := marshal(t, gen.make(2)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", gen.name)
		}
	}
	if bytes.Equal(marshal(t, Batch(1, 0)), marshal(t, Batch(1, 1))) {
		t.Error("batches 0 and 1 of one seed are identical")
	}
	// The quick universe is a prefix of the full one, so one pin
	// covers both.
	if !bytes.Equal(marshal(t, Universe(1, pinUniverse)), marshal(t, Universe(1, UniverseSize)[:pinUniverse])) {
		t.Error("the quick universe is not a prefix of the full universe")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{92, 0.90, true}, {91, 0.90, false},
		{902, 0.99, true}, {901, 0.99, false},
		{20, 0.50, true}, {19, 0.50, false}, {0, 0.50, false},
	} {
		if _, ok := Percentile(sorted(c.n), c.q); ok != c.ok {
			t.Errorf("p%g of %d samples: reported %v, want %v", 100*c.q, c.n, ok, c.ok)
		}
	}
	if v, _ := Percentile(sorted(101), 0.9); v != 90 {
		t.Errorf("p90 of 0..100 = %g, want 90", v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 2}, [3]float64{1, 2, 4}},
	} {
		q1, med, q3 := Quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles = %v, want %v", got, c.want)
		}
	}
}

func TestLedgerLayersPlusResidualEqualWall(t *testing.T) {
	// A synthetic traced single request: 100 µs round trip, 40 µs in
	// the handler, of which decode 5, resolve 20 (gate 2 + canon 3 +
	// probe 1 + simulate 10, with gaps) and encode 4.
	tr := NewTracer()
	us := func(v float64) int64 { return int64(v * 1e3) }
	tr.Record(Span{Name: spanHTTP, EndNS: us(100)})
	tr.Record(Span{Name: spanHandler, EndNS: us(40)})
	tr.Record(Span{Name: spanDecode, EndNS: us(5)})
	tr.Record(Span{Name: spanResolve, StartNS: us(5), EndNS: us(25)})
	tr.Record(Span{Name: spanEncode, StartNS: us(25), EndNS: us(29)})
	sink := newResolveSink(tr, 0, 0, 1)
	for _, sp := range []struct {
		name       string
		start, end float64
	}{{"gate", 6, 8}, {"canonicalise", 8, 11}, {"cache-probe", 12, 13}, {"simulate", 14, 24}} {
		sink.spans = append(sink.spans, Span{Name: sp.name, StartNS: us(sp.start), EndNS: us(sp.end)})
	}
	sink.flush()

	res := newResult("serve-single", Config{})
	servedLayers(res, tr)
	l := res.Ledger
	if math.Abs(l.SumUS()+l.ResidualUS()-l.WallUS) > 1e-9 {
		t.Fatalf("layers %g + residual %g != wall %g", l.SumUS(), l.ResidualUS(), l.WallUS)
	}
	want := map[string]float64{
		"serve.net": 60, "serve.wrapper": 11, "serve.decode": 5, "sweep.route": 4,
		"core.gate": 2, "modmath.canon": 3, "sweep.probe": 1, "memsys.simulate": 10, "serve.encode": 4,
	}
	for _, ly := range l.Layers {
		if math.Abs(ly.SelfUS-want[ly.Name]) > 1e-9 {
			t.Errorf("%s self time %g µs, want %g", ly.Name, ly.SelfUS, want[ly.Name])
		}
	}
	if math.Abs(l.ResidualUS()) > 1e-9 || res.Metrics["ledger.residual_pct"].Value != l.ResidualPct() {
		t.Errorf("residual %g µs (%g %%), want 0", l.ResidualUS(), res.Metrics["ledger.residual_pct"].Value)
	}

	// A residual is what the layers leave uncovered.
	l2 := Ledger{WallUS: 10, Layers: []Layer{{"a", 3}, {"b", 5}}}
	if l2.ResidualUS() != 2 || l2.SumUS()+l2.ResidualUS() != l2.WallUS || l2.ResidualPct() != 20 {
		t.Errorf("ledger %+v: residual %g µs, %g %%", l2, l2.ResidualUS(), l2.ResidualPct())
	}
}

func TestUnionOfOverlappingSpans(t *testing.T) {
	ivs := [][2]int64{{10, 20}, {0, 5}, {15, 30}, {30, 31}, {40, 41}}
	if got := unionNS(ivs); got != 5+21+1 {
		t.Errorf("union = %d, want 27", got)
	}
}

func TestPlantedWrongAnswerFailsTheRun(t *testing.T) {
	for _, w := range []string{"serve-single", "restart-warm"} {
		res, err := Run(w, Config{Seed: 1, Quick: true, WorkDir: t.TempDir(), plant: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.Extra["fail_pct"].Value <= 0 {
			t.Errorf("%s: planted wrong answer gave correct=%v failed=%d fail_pct=%v",
				w, res.Correct, res.Failed, res.Extra["fail_pct"])
		}
		if ExitCode([]*Result{res}) == 0 {
			t.Errorf("%s: exit status 0 after a wrong answer", w)
		}
	}
}

func TestCompareFlagsRegressionAndSpread(t *testing.T) {
	m := MetricSpec{Name: "placements_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 100}
	if c := compareOne("w", m, steady, []float64{90, 91, 89, 90, 90}); c.Verdict != VerdictRegression {
		t.Errorf("10%% slower: verdict %s", c.Verdict)
	}
	if c := compareOne("w", m, steady, []float64{80, 120, 100, 90, 110}); c.Verdict != VerdictUnresolved {
		t.Errorf("wide spread: verdict %s", c.Verdict)
	}
	if c := compareOne("w", m, steady, []float64{104, 105, 103, 104, 104}); c.Verdict != VerdictGain || c.Wins != 5 {
		t.Errorf("4%% faster in every pair: verdict %s, %d/%d wins", c.Verdict, c.Wins, c.Pairs)
	}
	if c := compareOne("w", m, steady, steady); c.Verdict != VerdictOK {
		t.Errorf("identical runs: verdict %s", c.Verdict)
	}
}
