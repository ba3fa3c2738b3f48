package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"ivm/internal/memsys"
	"ivm/internal/serve"
	"ivm/internal/sweep"
)

// The EXPERIMENTS.md census: pair grids (m, n_c), section grids
// (m, s, n_c), the all-placements triple grid and the 4-stream grid.
// Quick mode runs the pair and section grids only.
var (
	censusPairs    = [][2]int{{8, 2}, {12, 3}, {13, 4}, {16, 4}, {32, 2}}
	censusSections = [][3]int{{12, 3, 3}, {16, 4, 4}}
)

// pass is one census pass on a fresh engine.
type pass struct {
	wall       time.Duration // engine calls only, not rendering
	placements int64
	gateable   int64 // pair-grid placements, which the gate may answer
	digest     string
	disagree   int
	specs      []sweep.ConfigSpec
	eng        *sweep.Engine
}

// runPass runs the census once and renders its tables. Each pass
// starts from a collected heap, so the previous pass's garbage does
// not shift when this pass's collections run.
func runPass(opt sweep.Options, quick bool) pass {
	runtime.GC()
	eng := sweep.NewEngine(opt)
	t0 := time.Now()
	pairs := make([][]sweep.PairResult, len(censusPairs))
	for i, g := range censusPairs {
		pairs[i] = eng.Grid(g[0], g[1])
	}
	sections := make([][]sweep.SectionPairResult, len(censusSections))
	for i, g := range censusSections {
		sections[i] = eng.SectionGrid(g[0], g[1], g[2])
	}
	var triples []sweep.TripleSweepResult
	var streams []sweep.SpecResult
	if !quick {
		triples = eng.TripleGrid(13, 4)
		streams = eng.NStreamGrid(8, 2, 4)
	}
	p := pass{wall: time.Since(t0), eng: eng}
	m := eng.Metrics()
	p.placements = m.AnalyticHits + m.CacheHits + m.CacheMisses

	h := sha256.New()
	for i, rs := range pairs {
		io.WriteString(h, sweep.Table(rs))
		p.disagree += len(sweep.Summarise(censusPairs[i][0], censusPairs[i][1], rs).Disagree)
		for _, r := range rs {
			p.gateable += int64(r.Starts)
			p.specs = append(p.specs, sweep.PairSpec(r.M, r.NC, r.D1, r.D2))
		}
	}
	for _, rs := range sections {
		io.WriteString(h, sweep.SectionTable(rs))
		for _, r := range rs {
			p.specs = append(p.specs, sweep.SectionPairSpec(r.M, r.S, r.NC, r.D1, r.D2))
		}
	}
	if !quick {
		io.WriteString(h, sweep.TripleGridTable(triples))
		io.WriteString(h, sweep.SpecTable(streams))
		for _, r := range triples {
			p.specs = append(p.specs, sweep.TripleSpec(r.M, r.NC, r.D))
		}
		for _, r := range streams {
			p.specs = append(p.specs, r.Spec)
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// timelineCap holds every event of one full census pass (about 660k).
const timelineCap = 1 << 20

// runCensus is the ivmsweep path in process: census passes on fresh
// engines after one untimed warm-up pass. Its inputs are fixed by the
// paper's census; the seed only draws the traced run's probe sample.
func runCensus(cfg Config, dir string) (*Result, error) {
	res := newResult("sweep-census", cfg)
	// Set-up is a fresh engine through the census's opening stage, its
	// pair grids. NewEngine alone builds nothing (the cache and the pool
	// start on first use), so set-up is timed to its first answers.
	grids, setup, err := timeSetup(cfg, func() ([][]sweep.PairResult, error) {
		eng := sweep.NewEngine(sweep.Options{})
		grids := make([][]sweep.PairResult, len(censusPairs))
		for i, g := range censusPairs {
			grids[i] = eng.Grid(g[0], g[1])
		}
		return grids, nil
	}, func([][]sweep.PairResult) error { return nil })
	if err != nil {
		return nil, err
	}
	res.setup(setup)
	for i, g := range censusPairs {
		res.Attempted++
		if n := len(sweep.Summarise(g[0], g[1], grids[i]).Disagree); n > 0 {
			res.fail("census set-up: %d disagreements on the (%d, %d) pair grid", n, g[0], g[1])
		}
	}
	pin := pins.Census
	if cfg.Quick {
		pin = pins.CensusQuick
	}
	check := func(p pass) {
		res.Attempted++
		if p.disagree > 0 {
			res.fail("census: %d pair-grid disagreements", p.disagree)
		}
		res.checkPin("census", p.digest, pin)
	}
	if !cfg.Quick {
		t0 := time.Now()
		check(runPass(sweep.Options{}, false))
		res.Phases["warmup"] = time.Since(t0).Seconds()
	}
	if cfg.Trace {
		return res, traceCensus(res, cfg, dir, check)
	}
	var walls, rates []float64
	var last pass
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < cfg.phaseLen() {
		last = runPass(sweep.Options{}, cfg.Quick)
		check(last)
		walls = append(walls, last.wall.Seconds())
		rates = append(rates, float64(last.placements)/last.wall.Seconds())
	}
	res.Phases["timed"] = time.Since(start).Seconds()
	res.Rates = rates
	res.set("placements_per_s", Median(append([]float64(nil), rates...)), "1/s")
	res.set("latency_p50_ms", 1e3*Median(walls), "ms")
	res.extra("latency_samples", float64(len(walls)), "pass")
	res.set("live_heap_mb", liveHeapMB(), "MiB")
	runtime.KeepAlive(last.eng)
	return res, nil
}

// traceCensus alternates untraced passes with passes recording a
// worker timeline. The timeline's item, canonicalise, simulate and
// find-cycle slices give the census ledger per work item; the pool's
// idle time is its residual. The serving layers, which the census does
// not use, are measured by sending a sample of census placements
// through the three entry points of a scratch server.
func traceCensus(res *Result, cfg Config, dir string, check func(pass)) error {
	var plain, traced []float64
	var itemNS, canonNS, simNS, findNS, items, canons, capacityNS int64
	var last pass
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.phaseLen(); i += 2 {
		p := runPass(sweep.Options{}, cfg.Quick)
		check(p)
		plain = append(plain, p.wall.Seconds())

		tl := sweep.NewTimeline(timelineCap)
		last = runPass(sweep.Options{Timeline: tl}, cfg.Quick)
		check(last)
		traced = append(traced, last.wall.Seconds())
		if n := tl.Dropped(); n > 0 {
			return fmt.Errorf("census timeline dropped %d events", n)
		}
		for _, ev := range tl.Events() {
			switch ev.Kind {
			case sweep.TimelineItem:
				itemNS += ev.DurNS
				items++
			case sweep.TimelineCanon:
				canonNS += ev.DurNS
				canons++
			case sweep.TimelineSimulate:
				simNS += ev.DurNS
			case sweep.TimelineFindCycle:
				findNS += ev.DurNS
			}
		}
		capacityNS += int64(last.eng.Snapshot().Workers) * last.wall.Nanoseconds()
	}
	res.Phases["untraced"] = sum(plain)
	res.Phases["traced"] = sum(traced)

	sample := sampleSpecs(cfg.Seed, last.specs)
	if err := servedProbe(res, cfg, dir, sample); err != nil {
		return err
	}
	engineLayers(res, sweep.Snapshot{}, last.eng.Snapshot(), 1, last.gateable)
	perItem := func(ns int64) float64 { return float64(ns) / float64(max(items, 1)) / 1e3 }
	other := perItem(itemNS - canonNS - simNS)
	res.set("sweep.item_other_us", other, "us")
	res.set("modmath.canon_us", float64(canonNS)/float64(max(canons, 1))/1e3, "us")
	l := Ledger{Unit: "item", WallUS: perItem(capacityNS), Layers: []Layer{
		{"sweep.item_other", other}, {"modmath.canon", perItem(canonNS)},
		{"memsys.simulate", perItem(simNS - findNS)}, {"memsys.findcycle", perItem(findNS)},
	}}
	res.Ledger = &l
	res.set("ledger.residual_pct", l.ResidualPct(), "%")
	res.set("obs.trace_overhead_pct", 100*(1-Median(plain)/Median(traced)), "%")

	if err := probeMemsys(res, sample); err != nil {
		return err
	}
	probeGate(res, sample)
	err := probeStore(res, last.eng.CacheRecords(), "", cfg.WorkDir)
	runtime.KeepAlive(last.eng)
	return err
}

// servedProbe sends each sample placement through all three entry
// points of a scratch server, checking every answer on the oracle.
func servedProbe(res *Result, cfg Config, dir string, sample []sweep.ConfigSpec) error {
	want, err := oracle(sample)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(sample))
	for i, spec := range sample {
		if bodies[i], err = json.Marshal(specJSONOf(spec)); err != nil {
			return err
		}
	}
	s, err := freshServer(dir)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.listen(); err != nil {
		return err
	}
	tr := NewTracer()
	for round := 0; round < int(numEntries); round++ {
		for i, body := range bodies {
			res.Attempted++
			resp, err := s.call(entry((round+i)%int(numEntries)), pathSingle, body, tr)
			if err == nil {
				err = checkSingle(want[i])(resp)
			}
			if err != nil {
				res.fail("served probe: %v", err)
			}
		}
	}
	servedLayers(res, tr)
	return writeTrace(cfg, res.Workload, tr)
}

// specJSONOf is the wire form of a fixed-placement spec.
func specJSONOf(spec sweep.ConfigSpec) serve.SpecJSON {
	sj := serve.SpecJSON{M: spec.M, S: spec.S, NC: spec.NC, Streams: make([]serve.StreamJSON, len(spec.Streams))}
	if spec.Priority != memsys.FixedPriority {
		sj.Priority = spec.Priority.String()
	}
	if spec.Mapping != memsys.CyclicSections {
		sj.Mapping = spec.Mapping.String()
	}
	for i, st := range spec.Streams {
		sj.Streams[i] = serve.StreamJSON{D: st.D, B: st.B, CPU: st.CPU}
	}
	return sj
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
