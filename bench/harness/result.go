package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload's outcome. Metrics holds the figures
// BENCHMARK.json declares for this kind of run (end-to-end untraced,
// per-layer traced); Extra holds the rest — tail percentiles with
// their sample counts, the failure share, the census path split.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Extra     map[string]Metric `json:"extra,omitempty"`
	// Digest is the SHA-256 of the workload's pinned answers, and
	// Pinned whether a pin existed to compare it against.
	Digest string `json:"digest,omitempty"`
	Pinned bool   `json:"pinned"`
	// Rates are the throughput samples placements_per_s is the median
	// of: per window (served) or per pass (census), in placements per
	// second.
	Rates []float64 `json:"rates,omitempty"`
	// Phases are the wall durations of the run's phases, in seconds.
	Phases map[string]float64 `json:"phases"`
	Ledger *Ledger            `json:"ledger,omitempty"`
	// Errors holds the first few wrong answers or failed requests.
	Errors []string `json:"errors,omitempty"`
}

// maxErrors bounds Result.Errors.
const maxErrors = 8

func newResult(workload string, cfg Config) *Result {
	return &Result{
		Workload: workload, Seed: cfg.Seed, Trace: cfg.Trace, Correct: true,
		Metrics: make(map[string]Metric), Extra: make(map[string]Metric),
		Phases: make(map[string]float64),
	}
}

// fail records a failed operation (a non-200 response or a wrong
// answer).
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *Result) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// setup records the set-up time: an end-to-end figure, kept aside on
// traced runs, whose metrics are the per-layer ones.
func (r *Result) setup(seconds float64) {
	if r.Trace {
		r.extra("setup_s", seconds, "s")
	} else {
		r.set("setup_s", seconds, "s")
	}
}

func (r *Result) extra(name string, v float64, unit string) {
	r.Extra[name] = Metric{Value: v, Unit: unit}
}

// finish derives the failure share once Attempted and Failed are final.
func (r *Result) finish() {
	if r.Attempted > 0 {
		r.extra("fail_pct", 100*float64(r.Failed)/float64(r.Attempted), "%")
	}
}

// ExitCode is the process status a set of results warrants: nonzero
// when any answer was wrong or any request failed.
func ExitCode(results []*Result) int {
	for _, r := range results {
		if !r.Correct || r.Failed > 0 || r.Attempted == 0 {
			return 1
		}
	}
	return 0
}

// Env records the machine and build a result file was measured on.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision,omitempty"`
	Modified   bool   `json:"vcs_modified,omitempty"`
	Clients    int    `json:"clients"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick,omitempty"`
}

// CurrentEnv describes this process.
func CurrentEnv(cfg Config) Env {
	env := Env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Clients: Clients(), Seconds: cfg.Seconds, Quick: cfg.Quick,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// Report is the content of a result file: the environment and one
// Result per workload run.
type Report struct {
	Env     Env       `json:"env"`
	Results []*Result `json:"results"`
}

// ReadReport loads a result file.
func ReadReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// MetricSpec is one metric declared in BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// WorkloadSpec is one workload declared in BENCHMARK.json.
type WorkloadSpec struct {
	Name string `json:"name"`
}

// Spec is the part of BENCHMARK.json the harness reads.
type Spec struct {
	Workloads []WorkloadSpec `json:"workloads"`
	EndToEnd  []MetricSpec   `json:"end_to_end"`
	PerLayer  []MetricSpec   `json:"per_layer"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
