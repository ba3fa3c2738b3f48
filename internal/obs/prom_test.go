package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"ivm/internal/sweep"
)

// TestWritePromTextGolden pins the exposition format byte-for-byte:
// HELP/TYPE headers, name-sorted metric families, label escaping and
// shortest-float values. scripts/check.sh greps a live scrape for the
// same header lines.
func TestWritePromTextGolden(t *testing.T) {
	metrics := []PromMetric{
		Counter("zeta_total", "Last by name.", 3),
		Gauge("alpha_ratio", "A ratio in [0,1].", 0.25),
		{
			Name: "beta_bytes", Help: `Help with backslash \ and
newline.`, Type: "counter",
			Samples: []PromSample{
				{Labels: []PromLabel{{"family", "pair"}, {"path", `quo"te`}}, Value: 42},
				{Labels: []PromLabel{{"family", "stream4"}}, Value: 7},
			},
		},
	}
	var buf bytes.Buffer
	if err := WritePromText(&buf, metrics); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alpha_ratio A ratio in [0,1].
# TYPE alpha_ratio gauge
alpha_ratio 0.25
# HELP beta_bytes Help with backslash \\ and\nnewline.
# TYPE beta_bytes counter
beta_bytes{family="pair",path="quo\"te"} 42
beta_bytes{family="stream4"} 7
# HELP zeta_total Last by name.
# TYPE zeta_total counter
zeta_total 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromValueSpecials(t *testing.T) {
	for v, want := range map[float64]string{
		math.NaN():     "NaN",
		math.Inf(1):    "+Inf",
		math.Inf(-1):   "-Inf",
		1.5:            "1.5",
		0:              "0",
		12345678901234: "1.2345678901234e+13",
	} {
		if got := promValue(v); got != want {
			t.Errorf("promValue(%v) = %q, want %q", v, got, want)
		}
	}
}

// Same-name metrics from different sources merge their samples under
// one HELP/TYPE header (Prometheus rejects duplicate family headers).
func TestWritePromTextMergesDuplicates(t *testing.T) {
	var buf bytes.Buffer
	err := WritePromText(&buf, []PromMetric{
		Counter("dup_total", "First wins.", 1),
		Counter("dup_total", "Ignored.", 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE dup_total") != 1 {
		t.Errorf("duplicate TYPE headers:\n%s", out)
	}
	samples := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dup_total ") {
			samples++
		}
	}
	if samples != 2 {
		t.Errorf("merged samples lost:\n%s", out)
	}
}

// expositionLine matches every legal line of the text format we emit.
var expositionLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|NaN|[+-]Inf))$`)

// checkExposition validates every line of a rendered exposition and
// that each sample family is preceded by its TYPE header (histogram
// samples carry the family name plus a _bucket/_sum/_count suffix).
func checkExposition(t *testing.T, out string) {
	t.Helper()
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(rest)[0]] = true
			continue
		}
		if !strings.HasPrefix(line, "#") {
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] {
					family = base
					break
				}
			}
			if !typed[family] {
				t.Errorf("sample %q before its TYPE header", line)
			}
		}
	}
}

// TestHistogramExposition pins the native-histogram rendering: one
// HELP/TYPE header, cumulative _bucket series over the fixed le grid,
// the +Inf bucket equal to _count, and _sum carrying the total.
func TestHistogramExposition(t *testing.T) {
	h := NewLatencyHist()
	h.ObserveNS(5_000)      // ~5us, inside the exposition window
	h.ObserveNS(1_000_000)  // 1ms
	h.ObserveNS(40_000_000) // 40ms
	h.ObserveNS(40_000_000) // 40ms
	var buf bytes.Buffer
	m := Histogram("req_seconds", "Request latency.").HistSample(h.Snapshot(), "endpoint", "bandwidth")
	if err := WritePromText(&buf, []PromMetric{m}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkExposition(t, out)
	for _, want := range []string{
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{endpoint="bandwidth",le="+Inf"} 4`,
		`req_seconds_count{endpoint="bandwidth"} 4`,
		`req_seconds_sum{endpoint="bandwidth"} 0.081005`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Bucket series must be cumulative and cover the whole window: the
	// count at each le never decreases, starts at or above 1 (the 5us
	// observation is inside the smallest window bucket's range or below
	// it) and the largest finite le already holds all 4.
	re := regexp.MustCompile(`req_seconds_bucket\{endpoint="bandwidth",le="([^"]+)"\} (\d+)`)
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) != expoMaxBucket-expoMinBucket+2 {
		t.Fatalf("want %d bucket series, got %d:\n%s", expoMaxBucket-expoMinBucket+2, len(matches), out)
	}
	prev := -1
	for _, match := range matches {
		var n int
		fmt.Sscanf(match[2], "%d", &n)
		if n < prev {
			t.Errorf("bucket le=%s count %d < previous %d (not cumulative)", match[1], n, prev)
		}
		prev = n
	}
	if last := matches[len(matches)-2]; last[2] != "4" {
		t.Errorf("largest finite bucket holds %s of 4 observations", last[2])
	}
}

// TestSweepPromMetricsLive renders a real engine with provenance
// through the Prometheus source and validates the full exposition,
// including the attribution metrics.
func TestSweepPromMetricsLive(t *testing.T) {
	prov := sweep.NewProvenance(0)
	eng := sweep.NewEngine(sweep.Options{Workers: 2, Provenance: prov})
	eng.Grid(13, 4)
	eng.NStreamGrid(4, 1, 4)

	reg := NewRegistry()
	reg.RegisterProm("sweep", SweepPromMetrics(eng))
	var buf bytes.Buffer
	if err := WritePromText(&buf, reg.GatherProm()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkExposition(t, out)
	for _, want := range []string{
		"ivm_up 1",
		"# TYPE ivm_sweep_units_total counter",
		"# TYPE ivm_sweep_cache_hit_ratio gauge",
		"ivm_sweep_cache_evicted_total 0",
		`ivm_sweep_family_cache_hits_total{family="pair"}`,
		`ivm_sweep_family_cache_hits_total{family="stream4"}`,
		`ivm_provenance_path_total{family="pair",path="analytic"}`,
		`ivm_provenance_path_total{family="stream4",path="sim-packed"}`,
		`ivm_provenance_singleton_orbits{family="stream4"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// The conservation invariant must be visible to a scraper: the four
	// path samples of each family sum to the placements the engine
	// resolved for it.
	m := eng.Metrics()
	for _, fam := range []string{"pair", "stream4"} {
		var sum float64
		for _, path := range []string{"analytic", "cache", "sim-scalar", "sim-packed"} {
			re := regexp.MustCompile(fmt.Sprintf(`ivm_provenance_path_total\{family=%q,path=%q\} (\S+)`, fam, path))
			match := re.FindStringSubmatch(out)
			if match == nil {
				t.Fatalf("no %s/%s path sample", fam, path)
			}
			var v float64
			fmt.Sscanf(match[1], "%g", &v)
			sum += v
		}
		f := m.Family(fam)
		if want := float64(f.Hits + f.Misses + f.Analytic); sum != want {
			t.Errorf("%s: scraped path sum %g != engine resolved %g", fam, sum, want)
		}
	}
}
