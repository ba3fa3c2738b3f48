// Command benchcmp compares two sets of ivmbench result files (written
// with -out), typically the parent commit's runs and a change's runs
// on the same seed. It prints one row per workload and metric: each
// side's median and quartiles, the change of the median, the metric's
// bound from BENCHMARK.json, and how many run pairs the new side won.
// It exits 1 when any end-to-end metric regressed past its bound or is
// unresolved (a side's quartile spread exceeds the bound).
//
//	benchcmp [-spec BENCHMARK.json] -old 'runs/old-*.json' -new 'runs/new-*.json'
//
// Files are paired in name order, so name them by run index and
// alternate which side runs first.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ivm/bench/harness"
)

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration with the metrics and bounds")
	oldGlob := flag.String("old", "", "glob of the baseline result files")
	newGlob := flag.String("new", "", "glob of the candidate result files")
	flag.Parse()
	if *oldGlob == "" || *newGlob == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	spec, err := harness.ReadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	old, err := load(*oldGlob)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*newGlob)
	if err != nil {
		fatal(err)
	}
	cs := harness.Compare(spec, old, cur)
	harness.WriteComparisons(os.Stdout, cs)
	bad := 0
	for _, c := range cs {
		if c.Verdict == harness.VerdictRegression || c.Verdict == harness.VerdictUnresolved {
			bad++
		}
	}
	fmt.Printf("%d runs old, %d runs new, %d of %d bounded metrics regressed or unresolved\n",
		len(old), len(cur), bad, countBounded(cs))
	if bad > 0 {
		os.Exit(1)
	}
}

// load reads the result files matching a glob, in name order.
func load(glob string) ([]harness.Report, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(paths)
	out := make([]harness.Report, len(paths))
	for i, p := range paths {
		if out[i], err = harness.ReadReport(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func countBounded(cs []harness.Comparison) int {
	n := 0
	for _, c := range cs {
		if c.Bound > 0 {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
