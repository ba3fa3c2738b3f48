package harness

import (
	"testing"
	"time"
)

// TestQuick is the benchmark's smoke test: every workload at a tiny
// size, untraced and traced, must emit every metric BENCHMARK.json
// declares with its unit, fail nothing, and match its pinned digests.
func TestQuick(t *testing.T) {
	spec, err := ReadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, trace := range []bool{false, true} {
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		for _, w := range spec.Workloads {
			res, err := Run(w.Name, Config{Seed: 1, Quick: true, Trace: trace, WorkDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Extra["fail_pct"].Value != 0 || ExitCode([]*Result{res}) != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d errors=%v", w.Name, trace, res.Correct, res.Failed, res.Errors)
			}
			if !res.Pinned {
				t.Errorf("%s trace=%v: no pinned digest for seed 1", w.Name, trace)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
	t.Logf("quick runs took %v", time.Since(start))
}
