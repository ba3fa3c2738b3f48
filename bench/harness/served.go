package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ivm/internal/rat"
	"ivm/internal/serve"
	"ivm/internal/sweep"
)

// runServeSingle is the closed-loop single-query workload: Clients()
// clients post /v1/bandwidth, each drawing specs from a seeded
// universe that the set-up's first pass has already sent once.
func runServeSingle(cfg Config, dir string) (*Result, error) {
	res := newResult("serve-single", cfg)
	n := UniverseSize
	if cfg.Quick {
		n = pinUniverse
	}
	universe := Universe(cfg.Seed, n)
	bodies := make([][]byte, n)
	for i, sj := range universe {
		b, err := json.Marshal(sj)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	specs, err := toSpecs(universe)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	want, err := oracle(specs)
	if err != nil {
		return nil, err
	}
	res.Phases["oracle"] = time.Since(t0).Seconds()
	d := newDigest()
	for _, v := range want[:pinUniverse] {
		d.add(v)
	}
	res.checkPin("universe", d.sum(), pins.Universe[seedKey(cfg.Seed)])
	if cfg.plant {
		want[0] = want[0].Add(rat.One())
	}

	// Set-up is what a fresh ivmserved does before it answers this
	// traffic from its steady state: open an empty store, listen, and
	// answer a first pass that sends every spec once and so fills the
	// cache. The timed phase then measures gate and cache answers.
	t0 = time.Now()
	s, setup, err := timeSetup(cfg, func() (*server, error) {
		s, err := freshServer(dir)
		if err != nil {
			return nil, err
		}
		if err := s.listen(); err != nil {
			return nil, errors.Join(err, discardFresh(s))
		}
		next := 0
		first := func() request {
			rq := single(bodies[next], universe[next], want[next])
			next++
			return rq
		}
		res.count(s.loop(pathSingle, []func() request{first}, 0, n, nil))
		return s, nil
	}, discardFresh)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res.setup(setup)
	res.Phases["setup"] = time.Since(t0).Seconds()

	clients := make([]func() request, Clients())
	for c := range clients {
		r := rng(cfg.Seed, streamClient+uint64(c))
		clients[c] = func() request {
			i := r.IntN(n)
			return single(bodies[i], universe[i], want[i])
		}
	}
	if err := s.measure(res, cfg, pathSingle, clients, 0); err != nil {
		return nil, err
	}
	if cfg.Trace {
		return res, s.probeLayers(res, cfg, sampleSpecs(cfg.Seed, specs))
	}
	return res, nil
}

// single is one /v1/bandwidth request.
func single(body []byte, sj serve.SpecJSON, want rat.Rational) request {
	rq := request{body: body, placements: 1, check: checkSingle(want)}
	if gateable(sj) {
		rq.gateable = 1
	}
	return rq
}

// coldBatchRate sizes batch-cold: batches per second of the phase
// length, about what this workload resolves per second on a 2-CPU
// machine.
const coldBatchRate = 40

// coldBatches is batch-cold's fixed amount of work. The work is fixed
// rather than timed because the cache and the store index grow with
// every new orbit: a timed phase would make the live heap follow the
// throughput.
func coldBatches(cfg Config) int {
	return max(pinBatches, int(coldBatchRate*cfg.phaseLen().Seconds()))
}

// runBatchCold is the writer-side workload: one client posts fresh
// generated batches to a server on an empty store, so every placement
// is a new orbit that is simulated and appended to the store.
func runBatchCold(cfg Config, dir string) (*Result, error) {
	res := newResult("batch-cold", cfg)
	// Set-up is a fresh server on an empty store answering its first
	// batch, drawn from a stream of its own and checked in full on the
	// oracle.
	warmup := WarmupBatch(cfg.Seed)
	warmBody, err := json.Marshal(serve.BatchRequest{Specs: warmup})
	if err != nil {
		return nil, err
	}
	warmSpecs, err := toSpecs(warmup)
	if err != nil {
		return nil, err
	}
	warmWant, err := oracle(warmSpecs)
	if err != nil {
		return nil, err
	}
	warm := request{body: warmBody, placements: BatchSize, check: func(resp []byte) error {
		got, err := decodeBatch(resp, BatchSize)
		if err != nil {
			return err
		}
		for k, v := range got {
			if !v.Equal(warmWant[k]) {
				return fmt.Errorf("set-up batch spec %d: got %s, oracle %s", k, v, warmWant[k])
			}
		}
		return nil
	}}
	t0 := time.Now()
	s, setup, err := timeSetup(cfg, func() (*server, error) {
		s, err := freshServer(dir)
		if err != nil {
			return nil, err
		}
		if err := s.listen(); err != nil {
			return nil, errors.Join(err, discardFresh(s))
		}
		res.count(s.loop(pathBatch, []func() request{func() request { return warm }}, 0, 1, nil))
		return s, nil
	}, discardFresh)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res.setup(setup)
	res.Phases["setup"] = time.Since(t0).Seconds()

	// Answers are checked two ways: the first pinBatches batches by
	// digest, and a seeded 1 % sample of every batch on the oracle
	// after the timed phase.
	digest := newDigest()
	var checkSpecs []sweep.ConfigSpec
	var checkGot []rat.Rational
	sampler := rng(cfg.Seed, streamOracle)
	next := 0
	gen := func() request {
		i := next
		next++
		sjs := Batch(cfg.Seed, i)
		body, err := json.Marshal(serve.BatchRequest{Specs: sjs})
		if err != nil {
			panic(err) // marshalling generated specs cannot fail
		}
		specs, err := toSpecs(sjs)
		if err != nil {
			panic(err)
		}
		return request{body: body, placements: len(sjs), check: func(resp []byte) error {
			got, err := decodeBatch(resp, len(sjs))
			if err != nil {
				return err
			}
			for k, v := range got {
				if i < pinBatches {
					digest.add(v)
				}
				if sampler.IntN(100) == 0 {
					checkSpecs = append(checkSpecs, specs[k])
					checkGot = append(checkGot, v)
				}
			}
			return nil
		}}
	}
	if err := s.measure(res, cfg, pathBatch, []func() request{gen}, coldBatches(cfg)); err != nil {
		return nil, err
	}
	res.checkPin("batch", digest.sum(), pins.Batches[seedKey(cfg.Seed)])
	t0 = time.Now()
	want, err := oracle(checkSpecs)
	if err != nil {
		return nil, err
	}
	if cfg.plant && len(want) > 0 {
		want[0] = want[0].Add(rat.One())
	}
	for k := range want {
		res.Attempted++
		if !want[k].Equal(checkGot[k]) {
			res.fail("oracle sample %d: got %s, oracle %s", k, checkGot[k], want[k])
		}
	}
	res.Phases["oracle"] = time.Since(t0).Seconds()
	res.extra("oracle_checked", float64(len(want)), "count")
	if !cfg.Trace {
		return res, nil
	}
	specs, err := toSpecs(Batch(cfg.Seed, 0))
	if err != nil {
		return nil, err
	}
	return res, s.probeLayers(res, cfg, sampleSpecs(cfg.Seed, specs))
}

// preludeBatches is the number of batches restart-warm's prelude
// resolves: about 51k records, sized against the cache capacity that
// serve.New derives from the store (twice the record count).
const preludeBatches = 100

// preludeSeed generates restart-warm's store whatever the run seed.
// Which records a store holds decides how many cache shards overflow
// while serve.New seeds it, and so the hit rate (37, 49 or 62 % on the
// seeds tried; bench/README.md has the cause). The store is therefore
// fixed, and the run seed draws the replay order.
const preludeSeed = 0

// runRestartWarm is the reader-side workload: an untimed cold pass
// fills a store from the batch generator; then the server is reopened
// on it — the timed set-up — and the same specs are replayed, in a
// seeded order regrouped into batches.
func runRestartWarm(cfg Config, dir string) (*Result, error) {
	res := newResult("restart-warm", cfg)
	nb := preludeBatches
	if cfg.Quick {
		nb = pinBatches
	}
	t0 := time.Now()
	specs, want, err := prelude(nb, dir)
	if err != nil {
		return nil, err
	}
	res.Phases["prelude"] = time.Since(t0).Seconds()
	d := newDigest()
	for _, v := range want[:pinBatches*BatchSize] {
		d.add(v)
	}
	res.checkPin("batch", d.sum(), pins.Batches[seedKey(preludeSeed)])
	order := rng(cfg.Seed, streamReplay).Perm(len(specs))
	if cfg.plant {
		want[order[0]] = want[order[0]].Add(rat.One())
	}
	bodies := make([][]byte, nb)
	for b := range bodies {
		sjs := make([]serve.SpecJSON, BatchSize)
		for k, i := range order[b*BatchSize : (b+1)*BatchSize] {
			sjs[k] = specs[i]
		}
		if bodies[b], err = json.Marshal(serve.BatchRequest{Specs: sjs}); err != nil {
			return nil, err
		}
	}

	s, setup, err := timeSetup(cfg, func() (*server, error) { return openServer(dir) },
		func(s *server) error { return s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	res.setup(setup)
	res.extra("seeded_records", float64(s.srv.Seeded()), "count")
	if err := s.listen(); err != nil {
		return nil, err
	}
	next := 0
	replay := func() request {
		b := next % nb
		next++
		return request{body: bodies[b], placements: BatchSize, check: func(resp []byte) error {
			got, err := decodeBatch(resp, BatchSize)
			if err != nil {
				return err
			}
			for k, v := range got {
				if i := order[b*BatchSize+k]; !v.Equal(want[i]) {
					return fmt.Errorf("prelude spec %d: warm %s, prelude %s", i, v, want[i])
				}
			}
			return nil
		}}
	}
	if err := s.measure(res, cfg, pathBatch, []func() request{replay}, 0); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		return res, nil
	}
	all, err := toSpecs(specs)
	if err != nil {
		return nil, err
	}
	return res, s.probeLayers(res, cfg, sampleSpecs(cfg.Seed, all))
}

// prelude resolves nb generated batches of preludeSeed on a cold
// engine that appends to the store in dir, returning the specs and
// their answers in generation order.
func prelude(nb int, dir string) ([]serve.SpecJSON, []rat.Rational, error) {
	s, err := openServer(dir)
	if err != nil {
		return nil, nil, err
	}
	var sjs []serve.SpecJSON
	var want []rat.Rational
	for i := 0; i < nb; i++ {
		batch := Batch(preludeSeed, i)
		specs, err := toSpecs(batch)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		res, err := s.srv.Engine().ResolveBatch(specs)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		sjs = append(sjs, batch...)
		for _, r := range res {
			want = append(want, r.BW)
		}
	}
	return sjs, want, s.close()
}

// measure runs a served workload's measured phase: the phase length,
// or exactly fixed requests per client when fixed > 0. Untraced, it is
// one closed loop over HTTP, reported as end-to-end figures. Traced,
// an untraced half and a traced half give the per-layer figures, the
// ledger and the tracing overhead.
func (s *server) measure(res *Result, cfg Config, path string, clients []func() request, fixed int) error {
	dur := cfg.phaseLen()
	if fixed > 0 {
		dur = 0
	}
	unit := "request"
	if path == pathBatch {
		unit = "batch"
	}
	runtime.GC()
	if !cfg.Trace {
		before := s.srv.Engine().Metrics()
		o := s.loop(path, clients, dur, fixed, nil)
		after := s.srv.Engine().Metrics()
		hits := after.CacheHits - before.CacheHits
		res.extra("cache_hit_pct", pct(hits, hits+after.CacheMisses-before.CacheMisses), "%")
		res.count(o)
		res.Phases["timed"] = o.wall.Seconds()
		res.Rates = o.windowRates(rateWindows)
		res.set("placements_per_s", Median(append([]float64(nil), res.Rates...)), "1/s")
		latencies(res, o.lat, unit)
		res.set("live_heap_mb", liveHeapMB(), "MiB")
		return nil
	}
	plain := s.loop(path, clients, dur/2, fixed/2, nil)
	res.count(plain)
	res.Phases["untraced"] = plain.wall.Seconds()
	before := s.srv.Engine().Snapshot()
	tr := NewTracer()
	traced := s.loop(path, clients, dur/2, fixed/2, tr)
	after := s.srv.Engine().Snapshot()
	res.count(traced)
	res.Phases["traced"] = traced.wall.Seconds()

	servedLayers(res, tr)
	engineLayers(res, before, after, traced.requests, traced.gateable)
	itemNS := float64(sumBusy(after)-sumBusy(before)) / float64(max(sumItems(after)-sumItems(before), 1))
	childNS := 0.0
	for _, name := range childSpans {
		childNS += float64(tr.SumNS(name))
	}
	res.set("sweep.item_other_us", (itemNS-childNS/float64(max(traced.direct, 1)))/1e3, "us")
	res.set("obs.trace_overhead_pct", 100*(1-1e6*Median(plain.lat)/tr.MedianUS(spanHTTP)), "%")
	return writeTrace(cfg, res.Workload, tr)
}

// rateWindows is the number of windows a served phase's throughput
// is the median of.
const rateWindows = 15

// latencies reports the median and the tail percentiles the sample
// supports, each with the sample count.
func latencies(res *Result, lat []float64, unit string) {
	sort.Float64s(lat)
	res.set("latency_p50_ms", 1e3*quantile(lat, 0.5), "ms")
	res.extra("latency_samples", float64(len(lat)), unit)
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		if v, ok := Percentile(lat, p.q); ok {
			res.extra(p.name, 1e3*v, "ms")
		}
	}
}

// The engine's child spans of a resolve call.
var childSpans = []string{sweep.SpanGate, sweep.SpanCanon, sweep.SpanCacheProbe, sweep.SpanSimulate}

// childLayers names the ledger layer of each child span.
var childLayers = map[string]string{
	sweep.SpanGate:       "core.gate",
	sweep.SpanCanon:      "modmath.canon",
	sweep.SpanCacheProbe: "sweep.probe",
	sweep.SpanSimulate:   "memsys.simulate",
}

// servedLayers derives the serving and resolve layers of a traced
// phase and its ledger per request. Each layer's self time is a
// difference of medians over the same traffic: net is the loopback
// round trip minus the in-process handler, the wrapper is the handler
// minus decode, resolve and encode, and the route is the resolve call
// minus the part its child spans cover. On a batch the workers'
// children overlap, so the covered wall time is shared among the child
// layers in proportion to their summed durations.
func servedLayers(res *Result, tr *Tracer) {
	w := tr.MedianUS(spanHTTP)
	h := tr.MedianUS(spanHandler)
	dec, rsv, enc := tr.MedianUS(spanDecode), tr.MedianUS(spanResolve), tr.MedianUS(spanEncode)
	covered := tr.MedianUS(sumCovered)
	net := max(w-h, 0)
	wrapper := max(h-dec-rsv-enc, 0)
	route := max(rsv-covered, 0)
	res.set("serve.net_us", net, "us")
	res.set("serve.handler_us", h, "us")
	res.set("serve.wrapper_us", wrapper, "us")
	res.set("serve.decode_us", dec, "us")
	res.set("serve.encode_us", enc, "us")
	res.set("sweep.resolve_us", rsv, "us")
	res.set("sweep.route_us", route, "us")
	res.set("sweep.probe_us", tr.MedianUS(sweep.SpanCacheProbe), "us")
	res.set("modmath.canon_us", tr.MedianUS(sweep.SpanCanon), "us")

	l := Ledger{Unit: "request", WallUS: w, Layers: []Layer{
		{"serve.net", net}, {"serve.wrapper", wrapper}, {"serve.decode", dec}, {"sweep.route", route},
	}}
	var childSum float64
	for _, name := range childSpans {
		childSum += float64(tr.SumNS(name))
	}
	for _, name := range childSpans {
		share := 0.0
		if childSum > 0 {
			share = covered * float64(tr.SumNS(name)) / childSum
		}
		l.Layers = append(l.Layers, Layer{childLayers[name], share})
	}
	l.Layers = append(l.Layers, Layer{"serve.encode", enc})
	res.Ledger = &l
	res.set("ledger.residual_pct", l.ResidualPct(), "%")
}

// engineLayers reports the engine's answer-path split, pool use and
// simulation counts between two snapshots. units is the number of
// requests (or census passes) in between, gateable the placements the
// analytic gate was allowed to answer.
func engineLayers(res *Result, before, after sweep.Snapshot, units, gateable int64) {
	b, a := before.Metrics, after.Metrics
	hits := a.CacheHits - b.CacheHits
	misses := a.CacheMisses - b.CacheMisses
	analytic := a.AnalyticHits - b.AnalyticHits
	all := hits + misses + analytic
	res.set("sweep.cache_hit_pct", pct(hits, hits+misses), "%")
	res.set("sweep.analytic_pct", pct(analytic, all), "%")
	res.set("sweep.sim_pct", pct(misses, all), "%")
	res.set("core.gate_accept_pct", pct(analytic, gateable), "%")
	wall := after.WallNS - before.WallNS
	res.set("sweep.pool_busy_pct", pct(sumBusy(after)-sumBusy(before), int64(after.Workers)*wall), "%")
	sims := a.CyclesFound - b.CyclesFound
	res.set("memsys.sims", float64(sims)/float64(max(units, 1)), "count")
	res.set("memsys.clocks_per_sim", float64(a.StepsSimulated-b.StepsSimulated)/float64(max(sims, 1)), "count")
}

func pct(n, d int64) float64 {
	if d <= 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func sumBusy(s sweep.Snapshot) int64 {
	var n int64
	for _, w := range s.PerWorker {
		n += w.BusyNS
	}
	return n
}

func sumItems(s sweep.Snapshot) int64 {
	var n int64
	for _, w := range s.PerWorker {
		n += w.Items
	}
	return n
}
