// Command ivmablate runs the ablation studies around the paper's
// conclusion: the multitasking option (splitting the triad across both
// CPUs for a uniform access environment), bank-skewing schemes on the
// full machine model, the elementary-kernel stride sweeps, and the
// classical random-access baselines the introduction contrasts with.
// The policies study adds the Fig. 8a/8b/9 reproduction and the
// cold/cached/warm differential campaign over every (priority,
// mapping) combination; it exits 1 on any mismatch. The Theorem 2-9
// pair, triple and section grids are ivmsweep's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"

	"ivm/internal/machine"
	"ivm/internal/memsys"
	"ivm/internal/obs/profile"
	"ivm/internal/randaccess"
	"ivm/internal/sweep"
	"ivm/internal/textplot"
	"ivm/internal/xmp"
)

func main() {
	study := flag.String("study", "all", "which study: policies|multitask|skew|kernels|random|all")
	n := flag.Int("n", 512, "vector length per stream")
	maxInc := flag.Int("maxinc", 16, "largest increment to sweep")
	workers := flag.Int("workers", 0, "sweep worker goroutines for the policies study; 0 selects GOMAXPROCS")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := validateAblateFlags(*n, *maxInc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := machine.DefaultConfig()
	ran := false
	if *study == "policies" || *study == "all" {
		if !policiesStudy(*workers) {
			os.Exit(1)
		}
		ran = true
	}
	if *study == "multitask" || *study == "all" {
		multitask(*maxInc, *n, cfg)
		ran = true
	}
	if *study == "skew" || *study == "all" {
		skewStudy(*maxInc, *n, cfg)
		ran = true
	}
	if *study == "kernels" || *study == "all" {
		kernels(*maxInc, *n, cfg)
		ran = true
	}
	if *study == "random" || *study == "all" {
		random()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown study %q\n", *study)
		os.Exit(1)
	}
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// validateAblateFlags rejects a vector length or increment range that
// leaves the multitask, skew and kernels studies nothing to run, with a
// usage error naming the flag, instead of a panic from the workload
// builder or an empty table.
func validateAblateFlags(n, maxInc int) error {
	if n < 1 {
		return fmt.Errorf("-n wants a vector length of at least 1, got %d", n)
	}
	if maxInc < 1 {
		return fmt.Errorf("-maxinc wants a largest increment of at least 1, got %d", maxInc)
	}
	return nil
}

// policiesStudy is the policy-dimension reproduction and soundness
// campaign. Part A re-derives the paper's Fig. 8a vs 8b and Fig. 9
// story as fixed-placement resolutions: the same two unit-stride
// streams on one CPU of an m=12, s=3, n_c=3 memory lose a third of
// their bandwidth to the fixed-priority section conflict (b_eff = 3/2,
// Fig. 8a), recover the full b_eff = 2 when cyclic priority shares the
// loss (Fig. 8b), and recover it again when the consecutive section
// mapping removes the conflict outright (Fig. 9). Part B is the
// differential campaign over every (priority, mapping) combination:
// the engine's sweep must agree with the cold sequential sweep
// row-for-row, and a cached and a warm pass of the engine over every
// placement, resolved one by one through the orbit cache (the sweep's
// class leads do not use it), must agree with the cold route
// placement-for-placement, with the cache hit rate of those two passes
// reported next to the mismatch count.
func policiesStudy(workers int) bool {
	fmt.Println("== policy dimensions: Fig. 8a/8b/9 reproduction and the per-policy differential campaign")
	ok := true

	figs := []struct {
		figure   string
		priority memsys.PriorityRule
		mapping  memsys.SectionMapping
		want     string
	}{
		{"8a", memsys.FixedPriority, memsys.CyclicSections, "3/2"},
		{"8b", memsys.CyclicPriority, memsys.CyclicSections, "2"},
		{"9", memsys.FixedPriority, memsys.ConsecutiveSections, "2"},
	}
	feng := sweep.NewEngine(sweep.Options{Workers: workers})
	tblA := &textplot.Table{Header: []string{"figure", "priority", "mapping", "b_eff", "path", "want", "ok"}}
	for _, f := range figs {
		spec := sweep.ConfigSpec{
			M: 12, S: 3, NC: 3,
			Streams: []sweep.Stream{{D: 1, B: 0, CPU: 0}, {D: 1, B: 1, CPU: 0}},
		}.WithPolicy(f.priority, f.mapping)
		res, err := feng.Resolve(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		good := res.BW.String() == f.want
		if !good {
			ok = false
		}
		tblA.Add(f.figure, f.priority.String(), f.mapping.String(), res.BW.String(), res.Path.String(), f.want, good)
	}
	fmt.Print(tblA.String())
	fmt.Println()

	combos := []struct {
		priority memsys.PriorityRule
		mapping  memsys.SectionMapping
	}{
		{memsys.FixedPriority, memsys.CyclicSections},
		{memsys.CyclicPriority, memsys.CyclicSections},
		{memsys.RoundRobinPerCPU, memsys.CyclicSections},
		{memsys.FixedPriority, memsys.ConsecutiveSections},
		{memsys.CyclicPriority, memsys.ConsecutiveSections},
		{memsys.RoundRobinPerCPU, memsys.ConsecutiveSections},
	}
	tblB := &textplot.Table{Header: []string{"priority", "mapping", "specs", "placements", "mismatch", "hit rate"}}
	for _, c := range combos {
		// Sectionless pair grid only under the cyclic mapping (the
		// consecutive mapping needs sections); the sectioned grid under
		// both mappings.
		var specs []sweep.ConfigSpec
		if c.mapping == memsys.CyclicSections {
			specs = append(specs, sweep.GridSpecs(8, 0, 2)...)
		}
		specs = append(specs, sweep.GridSpecs(12, 3, 3)...)
		for i := range specs {
			specs[i] = specs[i].WithPolicy(c.priority, c.mapping)
		}
		cold := sweep.SpecGrid(specs)
		engRes := sweep.NewEngine(sweep.Options{Workers: workers}).SpecGrid(specs)
		batch := sweep.Placements(specs)
		coldAt := sweep.SpecGrid(batch)
		eng := sweep.NewEngine(sweep.Options{Workers: workers})
		mismatch := 0
		for i := range cold {
			if !reflect.DeepEqual(cold[i], engRes[i]) {
				mismatch++
			}
		}
		for pass := 0; pass < 2; pass++ { // cached, then warm
			res, err := eng.ResolveBatch(batch)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return false
			}
			for i, r := range res {
				if !r.BW.Equal(coldAt[i].SimMin) {
					mismatch++
				}
			}
		}
		if mismatch > 0 {
			ok = false
		}
		m := eng.Metrics()
		rate := 0.0
		if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
			rate = float64(m.CacheHits) / float64(lookups)
		}
		tblB.Add(c.priority.String(), c.mapping.String(), len(specs), len(batch), mismatch,
			fmt.Sprintf("%.1f%%", rate*100))
	}
	fmt.Print(tblB.String())
	if ok {
		fmt.Println("zero mismatches: every (priority, mapping) family is sound cold, cached and warm.")
	} else {
		fmt.Println("MISMATCHES FOUND: a policy family disagrees between the cold, cached and warm paths.")
	}
	fmt.Println()
	return ok
}

func multitask(maxInc, n int, cfg machine.Config) {
	fmt.Printf("== multitasking the triad (conclusion): 2n on one CPU vs n+n on both, n=%d\n", n)
	tbl := &textplot.Table{Header: []string{"INC", "single/clocks", "split/clocks", "speedup"}}
	for _, r := range xmp.MultitaskSweep(maxInc, n, cfg) {
		tbl.Add(r.INC, r.SingleClocks, r.SplitClocks, fmt.Sprintf("%.2f", r.Speedup))
	}
	fmt.Print(tbl.String())
	fmt.Println()
}

func skewStudy(maxInc, n int, cfg machine.Config) {
	fmt.Printf("== linear bank skewing on the full machine (busy environment), n=%d\n", n)
	tbl := &textplot.Table{Header: []string{"INC", "plain/clocks", "skewed/clocks", "ratio"}}
	for inc := 1; inc <= maxInc; inc++ {
		p := xmp.TriadExperiment(inc, n, true, cfg)
		s := xmp.SkewedTriadExperiment(inc, n, xmp.LinearSkewMapper(), cfg)
		tbl.Add(inc, p.Clocks, s.Clocks, fmt.Sprintf("%.2f", float64(s.Clocks)/float64(p.Clocks)))
	}
	fmt.Print(tbl.String())
	fmt.Println("skewing repairs the self-conflicting power-of-two strides and taxes some odd ones.")
	fmt.Println()
}

func kernels(maxInc, n int, cfg machine.Config) {
	fmt.Printf("== elementary kernels over stride (quiet environment), n=%d\n", n)
	tbl := &textplot.Table{Header: []string{"kernel", "INC", "clocks", "bank", "section"}}
	for _, r := range xmp.KernelSweep(maxInc, n, cfg) {
		tbl.Add(r.Kernel, r.INC, r.Clocks, r.Bank, r.Section)
	}
	fmt.Print(tbl.String())
	fmt.Println()
}

func random() {
	fmt.Println("== vector mode vs the classical random-access models (m=16, nc=4, p=4)")
	tbl := &textplot.Table{Header: []string{"distance", "vector b_eff", "random b_eff", "binomial model", "Hellerman m^0.56"}}
	for _, r := range randaccess.CompareStrides(16, 4, 4, []int{1, 2, 3, 4, 8, 16}, 20000) {
		tbl.Add(r.Distance,
			fmt.Sprintf("%.3f", r.Vector),
			fmt.Sprintf("%.3f", r.Random),
			fmt.Sprintf("%.3f", r.Binomial),
			fmt.Sprintf("%.3f", randaccess.Hellerman(16)))
	}
	fmt.Print(tbl.String())
	fmt.Println("random-access theory misses both the conflict-free and the degenerate vector strides.")
}
