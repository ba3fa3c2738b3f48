package report

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivm/internal/sweep"
)

func TestWriteFastReport(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, Fast()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Reproduction report",
		"## Figures 2–9",
		"Fig. 8a  3/2       3/2",
		"## Conflict phase histograms",
		"section-conflict regime",
		"grants by bank",
		"## Analytic model vs simulator",
		"disagreements",
		"## Policy dimensions on the Fig. 8/9 placement",
		"## Fig. 10:",
		"unique-barrier (triad wins)",
		"## Multitasking",
		"## Linear bank skewing",
		"## Matrix access patterns",
		"## Classical random-access baselines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The grid summary must report zero disagreements: inspect only the
	// grid section's data rows.
	_, rest, ok := strings.Cut(out, "## Analytic model vs simulator")
	if !ok {
		t.Fatal("grid section missing")
	}
	section, _, _ := strings.Cut(rest, "##")
	for _, line := range strings.Split(section, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] != "m" && !strings.HasPrefix(fields[0], "-") {
			if fields[3] != "0" {
				t.Errorf("grid row reports disagreements: %q", line)
			}
		}
	}
}

func TestPhaseHistogramSectionShowsConflicts(t *testing.T) {
	var b strings.Builder
	if err := PhaseHistograms(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The barrier regime clusters bank conflicts; the shifted Fig. 7
	// regime shows section conflicts. Both headers carry the cycle
	// geometry line from PhaseHistogram.Render.
	if strings.Count(out, "phase histogram: cycle of") != 2 {
		t.Errorf("want two rendered histograms:\n%s", out)
	}
	if !strings.Contains(out, "Barrier-situation") {
		t.Error("Fig. 3 case missing")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the report golden files")

// TestPolicyComparisonGolden pins the policy-comparison section byte
// for byte: the Fig. 8a/8b/9 bandwidths under every priority rule and
// section mapping on the reference placement. Regenerate (only after
// an intentional output change) with
//
//	go test ./internal/report -run TestPolicyComparisonGolden -update
func TestPolicyComparisonGolden(t *testing.T) {
	var b strings.Builder
	if err := PolicyComparison(&b, sweep.NewEngine(sweep.Options{})); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "policy_comparison.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("policy comparison drifted from the golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWriteValidatesOptions(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestFiguresSection(t *testing.T) {
	var b strings.Builder
	if err := Figures(&b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8a", "Fig. 8b", "Fig. 9"} {
		if !strings.Contains(b.String(), id) {
			t.Errorf("missing %s", id)
		}
	}
}

func TestDefaultsCoverPaperScale(t *testing.T) {
	d := Defaults()
	if d.TriadN != 1024 || d.MaxInc != 16 || len(d.Grids) < 4 {
		t.Fatalf("defaults %+v", d)
	}
}
