package ivm

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates the corresponding result and reports the scientific
// quantity (effective bandwidth, execution clocks, conflict counts) as
// benchmark metrics, so `go test -bench=. -benchmem` doubles as the
// reproduction record (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"
	"time"

	"ivm/internal/core"
	"ivm/internal/figures"
	"ivm/internal/machine"
	"ivm/internal/memsys"
	"ivm/internal/obs"
	"ivm/internal/randaccess"
	"ivm/internal/skew"
	"ivm/internal/stream"
	"ivm/internal/sweep"
	"ivm/internal/xmp"
)

func benchFigure(b *testing.B, f figures.Figure) {
	b.Helper()
	var bw float64
	for i := 0; i < b.N; i++ {
		r, _, err := f.SteadyBandwidth()
		if err != nil {
			b.Fatal(err)
		}
		bw = r.Float()
	}
	b.ReportMetric(bw, "b_eff")
	if f.WantBandwidth.Num != 0 {
		b.ReportMetric(f.WantBandwidth.Float(), "b_eff_paper")
	}
}

// Fig. 2: conflict-free pair (m=12, nc=3, d1=1, d2=7), b_eff = 2.
func BenchmarkFig2ConflictFree(b *testing.B) { benchFigure(b, figures.Fig2()) }

// Fig. 3: barrier-situation (m=13, nc=6, d1=1, d2=6), b_eff = 7/6.
func BenchmarkFig3Barrier(b *testing.B) { benchFigure(b, figures.Fig3()) }

// Fig. 4: double conflict (b2=1), mutual delays; pinned b_eff = 1.
func BenchmarkFig4DoubleConflict(b *testing.B) { benchFigure(b, figures.Fig4()) }

// Fig. 5: barrier-situation (m=13, nc=4, d1=1, d2=3, b2=7), b_eff = 4/3.
func BenchmarkFig5Barrier(b *testing.B) { benchFigure(b, figures.Fig5()) }

// Fig. 6: inverted barrier (b2=1); pinned b_eff = 7/5.
func BenchmarkFig6InvertedBarrier(b *testing.B) { benchFigure(b, figures.Fig6()) }

// Fig. 7: conflict-free access with sections (m=12, s=2, nc=2), b_eff = 2.
func BenchmarkFig7Sections(b *testing.B) { benchFigure(b, figures.Fig7()) }

// Fig. 8a: linked conflict under fixed priority, b_eff = 3/2.
func BenchmarkFig8aLinkedConflict(b *testing.B) { benchFigure(b, figures.Fig8a()) }

// Fig. 8b: linked conflict resolved by cyclic priority, b_eff = 2.
func BenchmarkFig8bCyclicPriority(b *testing.B) { benchFigure(b, figures.Fig8b()) }

// Fig. 9: linked conflict resolved by consecutive sections, b_eff = 2.
func BenchmarkFig9ConsecutiveSections(b *testing.B) { benchFigure(b, figures.Fig9()) }

// Fig. 10 series: the triad on the simulated X-MP, n = 1024,
// INC = 1..16. Each sub-benchmark reports the triad's execution time in
// clock periods plus its three conflict counters.
func BenchmarkFig10aTriadBusy(b *testing.B) {
	cfg := machine.DefaultConfig()
	for inc := 1; inc <= 16; inc++ {
		b.Run(fmt.Sprintf("INC=%d", inc), func(b *testing.B) {
			var r xmp.TriadResult
			for i := 0; i < b.N; i++ {
				r = xmp.TriadExperiment(inc, 1024, true, cfg)
			}
			b.ReportMetric(float64(r.Clocks), "clocks")
			b.ReportMetric(r.Micros, "us")
		})
	}
}

func BenchmarkFig10bTriadQuiet(b *testing.B) {
	cfg := machine.DefaultConfig()
	for inc := 1; inc <= 16; inc++ {
		b.Run(fmt.Sprintf("INC=%d", inc), func(b *testing.B) {
			var r xmp.TriadResult
			for i := 0; i < b.N; i++ {
				r = xmp.TriadExperiment(inc, 1024, false, cfg)
			}
			b.ReportMetric(float64(r.Clocks), "clocks")
			b.ReportMetric(r.Micros, "us")
		})
	}
}

func benchTriadConflicts(b *testing.B, metric func(xmp.TriadResult) int64, unit string) {
	b.Helper()
	cfg := machine.DefaultConfig()
	for inc := 1; inc <= 16; inc++ {
		b.Run(fmt.Sprintf("INC=%d", inc), func(b *testing.B) {
			var r xmp.TriadResult
			for i := 0; i < b.N; i++ {
				r = xmp.TriadExperiment(inc, 1024, true, cfg)
			}
			b.ReportMetric(float64(metric(r)), unit)
		})
	}
}

func BenchmarkFig10cBankConflicts(b *testing.B) {
	benchTriadConflicts(b, func(r xmp.TriadResult) int64 { return r.Bank }, "bank_conflicts")
}

func BenchmarkFig10dSectionConflicts(b *testing.B) {
	benchTriadConflicts(b, func(r xmp.TriadResult) int64 { return r.Section }, "section_conflicts")
}

func BenchmarkFig10eSimultaneousConflicts(b *testing.B) {
	benchTriadConflicts(b, func(r xmp.TriadResult) int64 { return r.Simultaneous }, "simultaneous_conflicts")
}

// Theorem 1: return numbers over a full grid.
func BenchmarkTheorem1ReturnNumbers(b *testing.B) {
	sum := 0
	for i := 0; i < b.N; i++ {
		sum = 0
		for m := 1; m <= 512; m++ {
			for d := 0; d < m; d++ {
				sum += core.ReturnNumber(m, d)
			}
		}
	}
	b.ReportMetric(float64(sum), "sum_r")
}

// Section III-A: single-stream b_eff over the X-MP's strides.
func BenchmarkSingleStreamBandwidth(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = 0
		for d := 0; d < 16; d++ {
			acc += core.SingleStreamBandwidth(16, 4, d).Float()
		}
	}
	b.ReportMetric(acc/16, "mean_b_eff")
}

// Theorem 3 sweep: analytic vs simulated agreement over a full grid.
func BenchmarkTheorem3Sweep(b *testing.B) {
	var disagreements int
	for i := 0; i < b.N; i++ {
		results := sweep.Grid(12, 3)
		disagreements = len(sweep.Summarise(12, 3, results).Disagree)
	}
	b.ReportMetric(float64(disagreements), "disagreements")
}

// Parallel sweep engine vs the sequential reference, over the full
// EXPERIMENTS.md cross-validation grid. The parallel benchmark builds a
// fresh engine each iteration (cold cache) and reports the achieved
// cache hit rate plus the wall-clock speedup against one sequential
// pass measured in the same process.
var sweepBenchGrid = []struct{ m, nc int }{{8, 2}, {12, 3}, {13, 4}, {16, 4}}

func BenchmarkSweepSequential(b *testing.B) {
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, g := range sweepBenchGrid {
			pairs += len(sweep.Grid(g.m, g.nc))
		}
	}
	b.ReportMetric(float64(pairs), "pairs")
}

func BenchmarkSweepParallel(b *testing.B) {
	start := time.Now()
	for _, g := range sweepBenchGrid {
		sweep.Grid(g.m, g.nc)
	}
	seq := time.Since(start)
	var hitRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4})
		for _, g := range sweepBenchGrid {
			eng.Grid(g.m, g.nc)
		}
		hitRate = eng.Metrics().HitRate()
	}
	b.ReportMetric(hitRate*100, "cache_hit_%")
	b.ReportMetric(seq.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup_vs_seq")
}

// The two-level speed path (docs/KERNEL.md), measured against the
// scalar no-gate baseline in the same process. Both sides run with the
// cache disabled so the metric isolates the speed paths themselves
// rather than memoization. The analytic benchmark is the theorem-dense
// census: a large power-of-two modulus with a short busy time, where
// Theorems 2/3 cover most distance pairs and the classifier gate
// answers placements without simulating.
func BenchmarkSweepAnalyticFastPath(b *testing.B) {
	off := false
	const m, nc = 32, 2
	start := time.Now()
	base := sweep.NewEngine(sweep.Options{Workers: 4, CacheSize: -1, Analytic: &off, PackedKernel: &off})
	base.Grid(m, nc)
	baseline := time.Since(start)
	var analyticRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4, CacheSize: -1})
		eng.Grid(m, nc)
		analyticRate = eng.Metrics().AnalyticHitRate()
	}
	b.ReportMetric(analyticRate*100, "analytic_hit_%")
	b.ReportMetric(baseline.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup_vs_scalar")
}

// The packed-kernel benchmark is the simulation-heavy census: the
// prime modulus (barrier- and conflict-rich) plus the X-MP modulus,
// with the analytic gate forced off on BOTH sides so every placement
// simulates and the metric isolates the bit-packed bank-busy kernel
// against the scalar oracle loop.
func BenchmarkSweepKernelPacked(b *testing.B) {
	off, on := false, true
	grid := []struct{ m, nc int }{{13, 4}, {16, 4}}
	start := time.Now()
	base := sweep.NewEngine(sweep.Options{Workers: 4, CacheSize: -1, Analytic: &off, PackedKernel: &off})
	for _, g := range grid {
		base.Grid(g.m, g.nc)
	}
	baseline := time.Since(start)
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4, CacheSize: -1, Analytic: &off, PackedKernel: &on})
		for _, g := range grid {
			eng.Grid(g.m, g.nc)
		}
		cycles = eng.Metrics().CyclesFound
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(baseline.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup_vs_scalar")
}

// The EXPERIMENTS.md triple grid: all-placements three-stream sweeps
// on the prime moduli, where the unit-group canonicalisation collapses
// most placements (power-of-two moduli have large stabilisers and
// fall below the 50% acceptance floor; see docs/CACHING.md).
var tripleBenchGrid = []struct{ m, nc int }{{7, 2}, {13, 4}}

func BenchmarkSweepTriplesSequential(b *testing.B) {
	var placements int
	for i := 0; i < b.N; i++ {
		placements = 0
		for _, g := range tripleBenchGrid {
			for _, r := range sweep.TripleGrid(g.m, g.nc) {
				placements += r.Starts
			}
		}
	}
	b.ReportMetric(float64(placements), "placements")
}

func BenchmarkSweepTriplesParallel(b *testing.B) {
	start := time.Now()
	for _, g := range tripleBenchGrid {
		sweep.TripleGrid(g.m, g.nc)
	}
	seq := time.Since(start)
	var hitRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4})
		for _, g := range tripleBenchGrid {
			eng.TripleGrid(g.m, g.nc)
		}
		hitRate = eng.Metrics().FamilyHitRate("triple")
	}
	b.ReportMetric(hitRate*100, "triple_cache_hit_%")
	b.ReportMetric(seq.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup_vs_seq")
}

// The EXPERIMENTS.md section grids: the Fig. 7 modulus and the X-MP
// layout, canonicalised under the full unit group (sound by the
// zero-mismatch campaign recorded in docs/CACHING.md §5).
var sectionBenchGrid = []struct{ m, s, nc int }{{12, 3, 3}, {16, 4, 4}}

func BenchmarkSweepSectionsSequential(b *testing.B) {
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, g := range sectionBenchGrid {
			pairs += len(sweep.SectionGrid(g.m, g.s, g.nc))
		}
	}
	b.ReportMetric(float64(pairs), "pairs")
}

func BenchmarkSweepSectionsParallel(b *testing.B) {
	start := time.Now()
	for _, g := range sectionBenchGrid {
		sweep.SectionGrid(g.m, g.s, g.nc)
	}
	seq := time.Since(start)
	var hitRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4})
		for _, g := range sectionBenchGrid {
			eng.SectionGrid(g.m, g.s, g.nc)
		}
		hitRate = eng.Metrics().FamilyHitRate("section")
	}
	b.ReportMetric(hitRate*100, "section_cache_hit_%")
	b.ReportMetric(seq.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup_vs_seq")
}

// The fixed-placement triple census under the translation-orbit cache
// key: a census at translated starts (t, 1+t, 2+t) is the standard
// census seen through the translation isomorphism, so the translated
// pass must be answered entirely from the cache (100% hits).
func BenchmarkSweepTripleCensusTranslated(b *testing.B) {
	var base, translated float64
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4})
		eng.SpecGrid(sweep.TripleCensusSpecs(13, 4, [3]int{0, 1, 2}))
		m0 := eng.Metrics().Family("triple")
		base = float64(m0.Hits) / float64(m0.Hits+m0.Misses)
		eng.SpecGrid(sweep.TripleCensusSpecs(13, 4, [3]int{5, 6, 7}))
		m1 := eng.Metrics().Family("triple")
		dh, dm := m1.Hits-m0.Hits, m1.Misses-m0.Misses
		translated = float64(dh) / float64(dh+dm)
	}
	b.ReportMetric(base*100, "census_cache_hit_%")
	b.ReportMetric(translated*100, "translated_census_hit_%")
}

// The generic four-stream grid (p=4, one stream per CPU): traffic of a
// spec outside the three legacy families, accounted under its own
// "stream4" cache family.
func BenchmarkSweepNStreamParallel(b *testing.B) {
	var hitRate float64
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4})
		eng.NStreamGrid(4, 1, 4)
		hitRate = eng.Metrics().FamilyHitRate("stream4")
	}
	b.ReportMetric(hitRate*100, "stream4_cache_hit_%")
}

// The policy sweep: the pair grid under cyclic arbitration priority,
// whose traffic lands in the "pair-cyc" cache family (the analytic
// gate declines non-fixed priority, so every placement is cached
// simulation). bench.sh distils the hit rate and throughput into the
// policies block of BENCH_sweep.json, so the perf trajectory tracks
// the policy dimensions alongside the historical fixed-priority
// families.
func BenchmarkSweepPolicies(b *testing.B) {
	specs := sweep.GridSpecs(8, 0, 2)
	for i := range specs {
		specs[i] = specs[i].WithPolicy(memsys.CyclicPriority, memsys.CyclicSections)
	}
	var hitRate float64
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4})
		eng.SpecGrid(specs)
		hitRate = eng.Metrics().FamilyHitRate("pair-cyc")
	}
	b.ReportMetric(hitRate*100, "policy_cache_hit_%")
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "policy_specs_per_s")
}

// Result provenance of the EXPERIMENTS.md cross-validation grid plus
// the four-stream family, with the attribution recorder attached: the
// per-path split (analytic theorem / cache orbit / simulation) over
// everything the engine resolved, and the share of stream4's orbits
// that were simulated once and never reused — the population behind
// its low hit rate (docs/OBSERVABILITY.md). bench.sh distils these
// into the provenance block of BENCH_sweep.json so the perf
// trajectory also tracks how results are being answered, not just how
// fast.
func BenchmarkSweepProvenance(b *testing.B) {
	var snap sweep.ProvenanceSnapshot
	for i := 0; i < b.N; i++ {
		eng := sweep.NewEngine(sweep.Options{Workers: 4, Provenance: sweep.NewProvenance(0)})
		for _, g := range sweepBenchGrid {
			eng.Grid(g.m, g.nc)
		}
		eng.NStreamGrid(4, 1, 4)
		snap = *eng.Snapshot().Provenance
	}
	var analytic, cache, sim, resolved int64
	for _, f := range snap.Families {
		analytic += f.Analytic
		cache += f.CacheHits
		sim += f.SimScalar + f.SimPacked
		resolved += f.Resolved
	}
	pct := func(n int64) float64 { return 100 * float64(n) / float64(resolved) }
	b.ReportMetric(pct(analytic), "analytic_path_%")
	b.ReportMetric(pct(cache), "cache_path_%")
	b.ReportMetric(pct(sim), "sim_path_%")
	if s4 := snap.Families["stream4"]; s4.Orbits > 0 {
		b.ReportMetric(100*float64(s4.SingletonOrbits)/float64(s4.Orbits), "stream4_singleton_orbit_%")
	}
}

// Per-cycle conflict composition of the Fig. 3 barrier, the
// observability layer's reference config: the phase histogram's
// per-kind totals over one steady-state period. bench.sh distils
// these metrics into the conflict_composition block of
// BENCH_sweep.json, so the perf trajectory also tracks what the
// conflicts are, not just how fast the sweeps run.
func BenchmarkPhaseHistogram(b *testing.B) {
	cfg := memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2}
	specs := []memsys.StreamSpec{
		{Start: 0, Distance: 1, CPU: 0},
		{Start: 0, Distance: 6, CPU: 1},
	}
	var h obs.PhaseHistogram
	for i := 0; i < b.N; i++ {
		var err error
		h, _, err = obs.TracePhaseHistogram(cfg, specs, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
	}
	var tot obs.PhaseCounts
	for _, p := range h.Phases {
		tot.Grants += p.Grants
		tot.Bank += p.Bank
		tot.Simultaneous += p.Simultaneous
		tot.Section += p.Section
	}
	b.ReportMetric(float64(tot.Grants), "grants")
	b.ReportMetric(float64(tot.Bank), "bank_conflicts")
	b.ReportMetric(float64(tot.Simultaneous), "simultaneous_conflicts")
	b.ReportMetric(float64(tot.Section), "section_conflicts")
	b.ReportMetric(float64(h.CycleLength), "cycle_clocks")
}

// Theorems 4-7 / Eq. 29: every unique-barrier pair of the 16-bank
// system simulated from all starts.
func BenchmarkBarrierBandwidthSweep(b *testing.B) {
	var checked int
	for i := 0; i < b.N; i++ {
		checked = 0
		for d1 := 1; d1 < 16; d1++ {
			for d2 := d1 + 1; d2 < 16; d2++ {
				a := core.Analyze(16, 4, d1, d2)
				if a.Regime != core.RegimeUniqueBarrier {
					continue
				}
				for b2 := 0; b2 < 16; b2++ {
					sys := memsys.New(memsys.Config{Banks: 16, BankBusy: 4, CPUs: 2})
					sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, int64(d1)))
					sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
					c, err := sys.FindCycle(1 << 20)
					if err != nil {
						b.Fatal(err)
					}
					if !c.EffectiveBandwidth().Equal(a.Bandwidth) {
						b.Fatalf("Eq. 29 violated for %d(+)%d b2=%d", d1, d2, b2)
					}
					checked++
				}
			}
		}
	}
	b.ReportMetric(float64(checked), "verified_starts")
}

// Theorems 8-9: section conflict-free constructions on the X-MP layout.
func BenchmarkSectionTheoremSweep(b *testing.B) {
	var hits int
	for i := 0; i < b.N; i++ {
		hits = 0
		for d1 := 0; d1 < 16; d1++ {
			for d2 := 0; d2 < 16; d2++ {
				if ok, _ := core.SectionConflictFree(16, 4, 4, d1, d2); ok {
					hits++
				}
			}
		}
	}
	b.ReportMetric(float64(hits), "conflict_free_pairs")
}

// Appendix: isomorphism normalisation over all pairs mod 16.
func BenchmarkIsomorphismSweep(b *testing.B) {
	var reps int
	for i := 0; i < b.N; i++ {
		reps = 0
		for d1 := 0; d1 < 16; d1++ {
			for d2 := 0; d2 < 16; d2++ {
				reps += len(core.Representations(16, d1, d2))
				stream.Normalize(16, d1, d2)
			}
		}
	}
	b.ReportMetric(float64(reps), "representations")
}

// Ablation (conclusion): skewing schemes vs plain interleaving on the
// power-of-two strides that defeat modulo mapping.
func BenchmarkSkewingAblation(b *testing.B) {
	xor, err := skew.NewXOR(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	schemes := []struct {
		name string
		mp   memsys.BankMapper
	}{
		{"plain", skew.Identity{M: 16}},
		{"linear", skew.Linear{M: 16, S: 1}},
		{"xor", xor},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				worst = 1.0
				for _, stride := range []int64{8, 16, 32, 64} {
					if bw := skew.StrideBandwidth(sc.mp, 4, stride, 2048); bw < worst {
						worst = bw
					}
				}
			}
			b.ReportMetric(worst, "worst_b_eff")
		})
	}
}

// Ablation (Figs. 8a/8b/9): priority rule and section mapping against
// the linked conflict.
func BenchmarkLinkedConflictAblation(b *testing.B) {
	cases := []struct {
		name string
		fig  figures.Figure
	}{
		{"fixed+cyclic-sections", figures.Fig8a()},
		{"cyclic-priority", figures.Fig8b()},
		{"consecutive-sections", figures.Fig9()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				r, _, err := c.fig.SteadyBandwidth()
				if err != nil {
					b.Fatal(err)
				}
				bw = r.Float()
			}
			b.ReportMetric(bw, "b_eff")
		})
	}
}

// Steady-state detector performance: hashed-state cycle detection vs a
// long fixed run, on the Fig. 3 barrier.
func BenchmarkCycleDetection(b *testing.B) {
	b.Run("hashed-cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := figures.Fig3()
			sys := f.Build()
			if _, err := sys.FindCycle(1 << 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("long-run-average", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := figures.Fig3()
			sys := f.Build()
			sys.Run(1 << 14)
		}
	})
}

// Ablation (conclusion): the multitasking option — n+n elements on the
// two CPUs vs 2n on one — for a representative stride set.
func BenchmarkMultitaskTriad(b *testing.B) {
	cfg := machine.DefaultConfig()
	for _, inc := range []int{1, 2, 3, 6} {
		b.Run(fmt.Sprintf("INC=%d", inc), func(b *testing.B) {
			var r xmp.MultitaskResult
			for i := 0; i < b.N; i++ {
				r = xmp.MultitaskTriad(inc, 512, cfg)
			}
			b.ReportMetric(r.Speedup, "speedup")
			b.ReportMetric(float64(r.SplitClocks), "split_clocks")
		})
	}
}

// Ablation (conclusion): linear bank skewing on the full machine model.
func BenchmarkSkewedTriad(b *testing.B) {
	cfg := machine.DefaultConfig()
	for _, inc := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("INC=%d", inc), func(b *testing.B) {
			var plain, skewed xmp.TriadResult
			for i := 0; i < b.N; i++ {
				plain = xmp.TriadExperiment(inc, 512, true, cfg)
				skewed = xmp.SkewedTriadExperiment(inc, 512, xmp.LinearSkewMapper(), cfg)
			}
			b.ReportMetric(float64(plain.Clocks), "plain_clocks")
			b.ReportMetric(float64(skewed.Clocks), "skewed_clocks")
		})
	}
}

// Companion-study kernel tables: copy/vadd/axpy stride sweep.
func BenchmarkKernelSweep(b *testing.B) {
	cfg := machine.DefaultConfig()
	var res []xmp.KernelResult
	for i := 0; i < b.N; i++ {
		res = xmp.KernelSweep(8, 256, cfg)
	}
	b.ReportMetric(float64(len(res)), "table_rows")
}

// Baseline (introduction's refs [1]-[5]): classical random-access
// bandwidth vs vector mode on the same memory.
func BenchmarkRandomAccessBaseline(b *testing.B) {
	var r []randaccess.VectorVsRandom
	for i := 0; i < b.N; i++ {
		r = randaccess.CompareStrides(16, 4, 4, []int{1, 8}, 8192)
	}
	b.ReportMetric(r[0].Vector, "vector_d1")
	b.ReportMetric(r[0].Random, "random")
	b.ReportMetric(r[0].Binomial, "binomial_model")
}

// Section IV's saturation argument: 6 unit-stride ports against the
// m/n_c capacity bound.
func BenchmarkSaturationBound(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		sys := memsys.New(memsys.Config{Banks: 16, BankBusy: 4, CPUs: 2})
		for p := 0; p < 6; p++ {
			sys.AddPort(p/3, fmt.Sprintf("%d", p), memsys.NewInfiniteStrided(int64(p), 1))
		}
		c, err := sys.FindCycle(1 << 18)
		if err != nil {
			b.Fatal(err)
		}
		bw = c.EffectiveBandwidth().Float()
	}
	b.ReportMetric(bw, "b_eff")
	b.ReportMetric(core.SaturationBound(16, 4, 6).Float(), "bound")
}

// Extension ablation: a port reorder window dissolves the Fig. 3
// barrier — quantifying how much of the bandwidth loss is the in-order
// port rule rather than the banks.
func BenchmarkReorderWindowAblation(b *testing.B) {
	for _, window := range []int{1, 2, 6} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			var clocks int64
			for i := 0; i < b.N; i++ {
				sys := memsys.New(memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2})
				sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
				src := memsys.NewWindowedStrided(0, 6, 390)
				sys.AddWindowedPort(1, "2", src, window)
				for !src.Done() {
					sys.Step()
				}
				clocks = sys.Clock()
			}
			b.ReportMetric(float64(clocks), "clocks_for_390")
		})
	}
}

// Companion-study [10] style: triad-vs-triad interference matrix.
func BenchmarkInterferenceMatrix(b *testing.B) {
	cfg := machine.DefaultConfig()
	var m [][]xmp.InterferenceCell
	for i := 0; i < b.N; i++ {
		m = xmp.InterferenceMatrix(4, 128, cfg)
	}
	b.ReportMetric(float64(m[0][0].ClocksA), "uniform_1x1_clocks")
	b.ReportMetric(float64(m[1][0].ClocksA), "barrier_2v1_clocks")
}

// Fidelity check: the Fig. 10 shape with the background CPU modelled as
// a real vector program instead of ideal raw streams.
func BenchmarkTriadMachineBackground(b *testing.B) {
	cfg := machine.DefaultConfig()
	for _, inc := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("INC=%d", inc), func(b *testing.B) {
			var r xmp.TriadResult
			for i := 0; i < b.N; i++ {
				r = xmp.TriadAgainstMachineBackground(inc, 256, cfg)
			}
			b.ReportMetric(float64(r.Clocks), "clocks")
		})
	}
}

// Conclusion's dimensioning advice: matrix row/diagonal access for
// hostile and friendly leading dimensions.
func BenchmarkMatrixAccessStudy(b *testing.B) {
	cfg := machine.DefaultConfig()
	var res []xmp.MatrixResult
	for i := 0; i < b.N; i++ {
		res = xmp.MatrixStudy([]int{64, 65}, 192, cfg)
	}
	for _, r := range res {
		if r.Pattern == xmp.RowAccess {
			b.ReportMetric(float64(r.Clocks), fmt.Sprintf("row_ldim%d_clocks", r.LeadingDim))
		}
	}
}

// Raw simulator throughput: clocks per second with six contending
// streams on the X-MP memory.
func BenchmarkSimulatorStep(b *testing.B) {
	sys := memsys.New(xmp.MemConfig())
	for i := 0; i < 3; i++ {
		sys.AddPort(0, fmt.Sprintf("a%d", i), memsys.NewInfiniteStrided(int64(i), 1))
		sys.AddPort(1, fmt.Sprintf("b%d", i), memsys.NewInfiniteStrided(int64(i), 2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}
