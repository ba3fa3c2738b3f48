// Command ivmbench is the end-to-end benchmark of the ivm bandwidth
// engine and service. It generates each workload's inputs from a seed,
// drives them into the program through its public API, checks every
// answer, and prints every metric by name with its unit. The last line
// of standard output is one JSON object: correct, attempted, failed
// and the metrics — the end-to-end figures, or with -trace 1 the
// per-layer figures. The exit status is nonzero on any wrong answer or
// failed request.
//
//	ivmbench -workload <name|all> -seed <n> [-seconds s] [-trace 0|1] [-out file.json] [-quick]
//
// bench/README.md describes the workloads, metrics and ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ivm/bench/harness"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: serve-single, batch-cold, restart-warm, sweep-census or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "1 for the per-layer run (spans, probes and ledger), 0 for end-to-end figures")
	out := flag.String("out", "", "write the full result file (environment, phases, tails, ledger) here")
	quick := flag.Bool("quick", false, "run every workload at a tiny size (smoke test)")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "ivmbench"), "directory for the workloads' stores and trace files")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = harness.Workloads
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := harness.Config{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick, WorkDir: *workDir,
	}
	report := harness.Report{Env: harness.CurrentEnv(cfg)}
	for _, name := range names {
		res, err := harness.Run(name, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		report.Results = append(report.Results, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(summary(report.Results))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	os.Exit(harness.ExitCode(report.Results))
}

// printResult prints one workload's metrics, one per line.
func printResult(res *harness.Result) {
	fmt.Printf("# %s seed=%d trace=%v correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed)
	for _, set := range []map[string]harness.Metric{res.Metrics, res.Extra} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Printf("%-14s %-26s %14.6g %s\n", res.Workload, name, m.Value, m.Unit)
		}
	}
	if l := res.Ledger; l != nil {
		fmt.Printf("%-14s ledger per %s: wall %.3f us = layers %.3f us + residual %.3f us\n",
			res.Workload, l.Unit, l.WallUS, l.SumUS(), l.ResidualUS())
	}
	for _, e := range res.Errors {
		fmt.Printf("%-14s error: %s\n", res.Workload, e)
	}
}

// summary is the last output line. With one workload its metrics are
// named as declared; with several, each name is prefixed by its
// workload.
func summary(results []*harness.Result) map[string]any {
	correct := true
	var attempted, failed int64
	metrics := make(map[string]harness.Metric)
	for _, r := range results {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		for name, m := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			metrics[name] = m
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ivmbench:", err)
	os.Exit(2)
}
