// Package serve is the HTTP/JSON query layer of ivmserved: a
// long-running bandwidth service answering "what is b_eff of this
// configuration" through the same sweep engine the CLIs run, so every
// response is byte-identical to what ivmsweep would print. Three
// endpoints cover the query shapes (docs/SERVING.md is the full API
// reference):
//
//	POST /v1/bandwidth  one fixed-placement ConfigSpec -> one result
//	POST /v1/batch      many specs, amortised over the worker pool
//	GET  /v1/sweep      a start sweep of a stride pair, streamed NDJSON
//
// Each result carries its provenance: which path answered (analytic
// theorem, canonical-orbit cache hit, or simulation), under which
// theorem identifier, via which canonical vector. The server wires the
// engine to an optional cachestore.Store — records seed the in-RAM
// cache at construction (warm start) and new simulations append to the
// store's log — and exposes ivmserved_* request/latency/hit-path
// counters beside the engine's ivm_sweep_* metrics on /metrics, with
// store integrity on /healthz.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/memsys"
	"ivm/internal/obs"
	"ivm/internal/obs/latency"
	"ivm/internal/sweep"
)

// MaxBatch bounds the specs one /v1/batch request may carry; larger
// batches should be split client-side (the cap keeps one request from
// monopolising the pool and bounds decode memory).
const MaxBatch = 1 << 16

// Options configures a Server.
type Options struct {
	// Workers and CacheSize configure the underlying sweep engine
	// (sweep.Options). CacheSize 0 selects a capacity of at least
	// sweep.DefaultCacheSize, grown to hold the store's records twice
	// over so a warm start is not evicted by its own seed.
	Workers   int
	CacheSize int
	// Store, when non-nil, is the persistent cache: its records are
	// seeded into the engine at construction and every new simulation
	// is appended back through the engine's CacheSink. The caller
	// keeps ownership (Sync/Close).
	Store *cachestore.Store
	// AccessLog, when non-nil, receives one structured line per API
	// request (msg "request": id, endpoint, method, status, duration,
	// answer path, theorem, family, result count) and a WARN line with
	// the span breakdown for each request over SlowThreshold.
	AccessLog *slog.Logger
	// SlowThreshold marks requests at or above it as slow: logged at
	// WARN with full provenance and retained for /statusz. Zero
	// disables slow-query tracking.
	SlowThreshold time.Duration
}

// endpointNames indexes the instrumented endpoints.
var endpointNames = []string{"bandwidth", "batch", "sweep", "healthz"}

// Server answers bandwidth queries over HTTP. Build with New, mount
// with Handler; the Server holds no listener of its own.
type Server struct {
	eng    *sweep.Engine
	store  *cachestore.Store
	reg    *obs.Registry
	seeded int

	accessLog     *slog.Logger
	slowThreshold time.Duration
	start         time.Time
	idBase        string
	reqSeq        atomic.Int64

	// latency is each endpoint's request count, summed duration and
	// distribution in one histogram; errors counts its 4xx/5xx answers.
	// Answer paths are the engine's tally (sweep.Engine.Tally).
	latency [4]latency.Hist
	errors  [4]atomic.Int64
	traces  *ring[obs.RequestTrace]
	slow    *ring[slowEntry]
}

// New builds a server: a provenance-recording engine sized for the
// store's record set, warm-seeded from it, with new simulations
// appended back to the store. Once seeded, the store's loaded records
// are released (cachestore.Store.ReleaseRecords), so the store keeps
// nothing per record while the server runs. A store record that fails
// seeding (shape corruption the CRC could not catch) fails
// construction — the store should be deleted and rebuilt rather than
// served from.
func New(opt Options) (*Server, error) {
	var records []sweep.CacheRecord
	if opt.Store != nil {
		records = opt.Store.Records()
	}
	size := opt.CacheSize
	if size == 0 {
		size = sweep.DefaultCacheSize
		if need := 2 * len(records); need > size {
			size = need
		}
	}
	if size < 0 {
		return nil, fmt.Errorf("serve: caching disabled (CacheSize %d): the server IS the cache", opt.CacheSize)
	}
	s := &Server{
		store:         opt.Store,
		reg:           obs.NewRegistry(),
		accessLog:     opt.AccessLog,
		slowThreshold: opt.SlowThreshold,
		start:         time.Now(),
		idBase:        newIDBase(),
		traces:        newRing[obs.RequestTrace](traceRingCapacity),
		slow:          newRing[slowEntry](slowRingCapacity),
	}
	eopt := sweep.Options{
		Workers:    opt.Workers,
		CacheSize:  size,
		Provenance: sweep.NewProvenance(0),
	}
	if opt.Store != nil {
		eopt.CacheSink = opt.Store
	}
	s.eng = sweep.NewEngine(eopt)
	for _, rec := range records {
		if err := s.eng.SeedCache(rec); err != nil {
			return nil, fmt.Errorf("serve: warm start: %v", err)
		}
		s.seeded++
	}
	if opt.Store != nil {
		opt.Store.ReleaseRecords() // the engine's cache holds them now
	}
	s.reg.RegisterProm("sweep", obs.SweepPromMetrics(s.eng))
	s.reg.RegisterProm("served", s.promMetrics)
	s.reg.Register("engine", func() any { return s.eng.Snapshot() })
	s.reg.Register("requests", func() any {
		out := make(map[string]latency.Snapshot, len(endpointNames))
		for i, name := range endpointNames {
			out[name] = s.latency[i].Snapshot()
		}
		return out
	})
	return s, nil
}

// Engine exposes the underlying sweep engine (examples and tests
// compare served answers against in-process sweeps).
func (s *Server) Engine() *sweep.Engine { return s.eng }

// Seeded reports how many store records warm-started the cache.
func (s *Server) Seeded() int { return s.seeded }

// Handler returns the server's full mux: the /v1 API, /healthz with
// store integrity, the human-readable /statusz page, the Chrome-trace
// export of recent requests at /debug/requests.trace, and the
// registry's /metrics, /metrics.json and /debug endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/bandwidth", s.instrument(0, http.HandlerFunc(s.handleBandwidth)))
	mux.Handle("/v1/batch", s.instrument(1, http.HandlerFunc(s.handleBatch)))
	mux.Handle("/v1/sweep", s.instrument(2, http.HandlerFunc(s.handleSweep)))
	mux.Handle("/healthz", s.instrument(3, http.HandlerFunc(s.handleHealthz)))
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/requests.trace", s.handleRequestTrace)
	s.reg.Mount(mux)
	return mux
}

// statusWriter captures the response status for the error counters
// while forwarding the streaming capabilities of the wrapped writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so streaming endpoints (the NDJSON
// sweep) reach the client incrementally instead of buffering the
// whole response behind the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, the
// standard library's interface-upgrade escape hatch.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps an endpoint with the full request-scoped
// observability: the ivmserved_* counters and latency histogram, the
// per-request TraceContext (honoring or minting X-Request-ID, echoed
// on the response), the slog access log, the slow-query log, and the
// completed-request trace ring. A completed request's spans are folded
// once into a summary (obs.TraceSummary), which both rings and the
// slow-query log share.
func (s *Server) instrument(endpoint int, h http.Handler) http.Handler {
	name := endpointNames[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := s.requestID(r)
		tc := obs.NewTraceContext(id)
		info := &reqInfo{tc: tc}
		ctx := withRequestInfo(sweep.WithSpanSink(r.Context(), tc), info)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(t0)
		s.latency[endpoint].Observe(dur)
		if sw.status >= 400 {
			s.errors[endpoint].Add(1)
		}
		sum := tc.Summary()
		s.traces.add(obs.RequestTrace{
			ID: id, Endpoint: name, Status: sw.status,
			StartNS: t0.Sub(s.start).Nanoseconds(), DurNS: dur.Nanoseconds(),
			Trace: sum,
		})
		slow := s.slowThreshold > 0 && dur >= s.slowThreshold
		if slow {
			s.slow.add(slowEntry{
				ID: id, Endpoint: name, Status: sw.status, When: t0, Dur: dur,
				Path: info.path, Theorem: info.theorem, Family: info.family,
				Results: info.results, Trace: sum,
			})
		}
		if s.accessLog != nil {
			s.accessLog.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("id", id), slog.String("endpoint", name),
				slog.String("method", r.Method), slog.Int("status", sw.status),
				slog.Float64("dur_ms", float64(dur.Nanoseconds())/1e6),
				slog.String("path", info.path), slog.String("theorem", info.theorem),
				slog.String("family", info.family), slog.Int("results", info.results))
			if slow {
				s.accessLog.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
					slog.String("id", id), slog.String("endpoint", name),
					slog.Float64("dur_ms", float64(dur.Nanoseconds())/1e6),
					slog.String("path", info.path), slog.String("theorem", info.theorem),
					slog.String("family", info.family), slog.Int("results", info.results),
					slog.String("spans", spanBreakdown(sum)),
					slog.Int64("spans_dropped", sum.Dropped))
			}
		}
	})
}

// spanBreakdown prints a request's phases compactly
// ("simulate:3x42.1ms gate:3x0.2ms"), ordered by total time, the shape
// the slow-query log and /statusz print. A phase with no span is not
// printed.
func spanBreakdown(sum obs.TraceSummary) string {
	phases := sum.Phases()
	slices.SortStableFunc(phases, func(a, b obs.PhaseSum) int { return cmp.Compare(b.TotalNS, a.TotalNS) })
	var b strings.Builder
	for i, p := range phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%dx%s", p.Name, p.Count, time.Duration(p.TotalNS).Round(time.Microsecond))
	}
	return b.String()
}

// pathCounts sums the engine's answer tally over families: the
// results resolved by each answer path (every placement the server's
// engine resolves is one query result).
func (s *Server) pathCounts() [sweep.PathSimPacked + 1]int64 {
	var n [sweep.PathSimPacked + 1]int64
	for _, f := range s.eng.Tally() {
		for p := range n {
			n[p] += f.Count(sweep.Path(p))
		}
	}
	return n
}

// promMetrics renders the ivmserved_* counters: request counts are each
// endpoint's histogram count, the answer-path split is the engine's
// tally.
func (s *Server) promMetrics() []obs.PromMetric {
	req := obs.PromMetric{Name: "ivmserved_requests_total",
		Help: "API requests served, by endpoint.", Type: "counter"}
	errs := obs.PromMetric{Name: "ivmserved_errors_total",
		Help: "API requests answered with a 4xx/5xx status, by endpoint.", Type: "counter"}
	hist := obs.Histogram("ivmserved_request_duration_seconds",
		"API request latency distribution, by endpoint (log2 buckets).")
	for i, name := range endpointNames {
		snap := s.latency[i].Snapshot()
		req = req.Sample("endpoint", name, snap.Count)
		errs = errs.Sample("endpoint", name, s.errors[i].Load())
		hist = hist.HistSample(snap, "endpoint", name)
	}
	paths := obs.PromMetric{Name: "ivmserved_responses_total",
		Help: "Query results resolved, by answer path.", Type: "counter"}
	for p, n := range s.pathCounts() {
		paths = paths.Sample("path", sweep.Path(p).String(), n)
	}
	out := []obs.PromMetric{req, errs, hist, paths,
		obs.Gauge("ivmserved_cache_seeded_records",
			"Store records seeded into the in-RAM cache at start.", float64(s.seeded))}
	if s.store != nil {
		h := s.store.Health()
		up := 1.0
		if h.Err != "" {
			up = 0
		}
		out = append(out,
			obs.Gauge("ivmserved_store_records", "Frames in the persistent cache store's log: kept at open plus appended since.", float64(h.Records)),
			obs.Gauge("ivmserved_store_skipped_records", "Corrupt tail records dropped when the store was opened.", float64(h.SkippedRecords)),
			obs.Gauge("ivmserved_store_up", "Whether the persistent store is healthy (no pending append/sync error).", up))
	}
	return out
}

// --- Handlers -----------------------------------------------------------

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck // client gone
}

// The serving layer's own span names: the engine records gate,
// canonicalise, cache-probe and simulate (sweep.SpanGate etc); decode
// and encode bracket them with the HTTP-side work.
const (
	spanDecode = "decode"
	spanEncode = "encode"
)

// handleBandwidth answers POST /v1/bandwidth: one SpecJSON in, one
// ResultJSON out.
func (s *Server) handleBandwidth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a spec to /v1/bandwidth")
		return
	}
	info := requestInfo(r)
	specs, err := decodeRequest(r, info, false)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.eng.ResolveCtx(r.Context(), specs[0])
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info.path = res.Path.String()
	info.theorem = res.Theorem
	info.family = res.Family
	info.results = 1
	w.Header().Set("Content-Type", "application/json")
	es := info.tc.Now()
	w.Write(encodeResult(res)) //nolint:errcheck // client gone
	info.tc.Keep(spanEncode, es)
}

// handleBatch answers POST /v1/batch: up to MaxBatch specs resolved
// through the worker pool in one call, with the path split attached.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST specs to /v1/batch")
		return
	}
	info := requestInfo(r)
	specs, err := decodeRequest(r, info, true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	results, err := s.eng.ResolveBatchCtx(r.Context(), specs)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	paths := split(results)
	info.results = len(results)
	info.path = dominantPath(paths)
	w.Header().Set("Content-Type", "application/json")
	es := info.tc.Now()
	w.Write(encodeBatch(results, paths)) //nolint:errcheck // client gone
	info.tc.Keep(spanEncode, es)
}

// decodeRequest reads and decodes a request's specs (decodeSpecs),
// timed as the request's decode span when they decode.
func decodeRequest(r *http.Request, info *reqInfo, batch bool) ([]sweep.ConfigSpec, error) {
	ds := info.tc.Now()
	body, err := readBody(r)
	if err != nil {
		what := "spec"
		if batch {
			what = "batch"
		}
		return nil, fmt.Errorf("bad %s: %v", what, err)
	}
	specs, err := decodeSpecs(body, batch)
	if err == nil {
		info.tc.Keep(spanDecode, ds)
	}
	return specs, err
}

// sweepParams are /v1/sweep's query parameters; any other is a 400.
var sweepParams = []string{"m", "nc", "d1", "d2", "s", "b1", "mapping", "priority"}

// handleSweep answers GET /v1/sweep: a start sweep of one stride pair
// — stream 2's start over all m banks — streamed as NDJSON, one row
// per line in b2 order: {"b2": …} followed by the result's ResultJSON
// fields (appendSweepRow). Query parameters: m, nc, d1, d2
// (required), s (sections; 0 or absent for sectionless), mapping
// (cyclic/consecutive bank-to-section mapping), priority
// (fixed/cyclic/rr-cpu arbitration), b1 (stream 1 start, default 0).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET /v1/sweep?m=..&nc=..&d1=..&d2=..")
		return
	}
	q := r.URL.Query()
	var unknown []string
	for name := range q {
		if !slices.Contains(sweepParams, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		httpError(w, http.StatusBadRequest, "unknown parameter %q", slices.Min(unknown))
		return
	}
	var parseErr error
	arg := func(name string, required bool) int {
		v := q.Get(name)
		if v == "" {
			if required {
				parseErr = cmp.Or(parseErr, fmt.Errorf("missing parameter %q", name))
			}
			return 0
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			parseErr = cmp.Or(parseErr, fmt.Errorf("parameter %q: %v", name, err))
		}
		return n
	}
	m := arg("m", true)
	nc := arg("nc", true)
	d1 := arg("d1", true)
	d2 := arg("d2", true)
	sections := arg("s", false)
	b1 := arg("b1", false)
	mapping, err := policy("parameter", "mapping", q.Get("mapping"), memsys.ParseMapping)
	parseErr = cmp.Or(parseErr, err)
	priority, err := policy("parameter", "priority", q.Get("priority"), memsys.ParsePriority)
	if parseErr = cmp.Or(parseErr, err); parseErr != nil {
		httpError(w, http.StatusBadRequest, "%v", parseErr)
		return
	}
	// A sweep of m rows is an m-spec batch: bound it like /v1/batch
	// before allocating anything sized by the query.
	if m <= 0 || m > MaxBatch {
		httpError(w, http.StatusBadRequest, "sweep: %d banks outside [1, %d]", m, MaxBatch)
		return
	}
	specs := make([]sweep.ConfigSpec, 0, m)
	for b2 := 0; b2 < m; b2++ {
		streams := []sweep.Stream{
			{D: d1, B: b1, CPU: 0},
			{D: d2, B: b2, CPU: 1},
		}
		if sections > 0 {
			streams[1].CPU = 0
		}
		specs = append(specs, sweep.ConfigSpec{
			M: m, S: sections, NC: nc, Streams: streams,
			Mapping: mapping, Priority: priority,
		})
	}
	info := requestInfo(r)
	results, err := s.eng.ResolveBatchCtx(r.Context(), specs)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info.results = len(results)
	info.path = dominantPath(split(results))
	if len(results) > 0 {
		info.family = results[0].Family
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	f, _ := w.(http.Flusher)
	es := info.tc.Now()
	var row []byte
	for b2, res := range results {
		row = appendSweepRow(row[:0], b2, res)
		if _, err := w.Write(row); err != nil {
			return // client gone; rows already written stand
		}
		if f != nil {
			f.Flush() // stream each row; statusWriter forwards the flush
		}
	}
	info.tc.Keep(spanEncode, es)
}

// handleRequestTrace serves GET /debug/requests.trace: the retained
// recent requests as a Chrome trace_event document (the "requests"
// process), loadable in chrome://tracing or Perfetto and greppable by
// request ID.
func (s *Server) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET /debug/requests.trace")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	traces, _ := s.traces.snapshot()
	obs.WriteRequestTrace(w, traces) //nolint:errcheck // client gone
}

// handleHealthz reports liveness plus store integrity: 200 with
// status "ok" when healthy, 500 with status "degraded" and the
// store's error when an append or sync has failed.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthJSON{Status: "ok"}
	status := http.StatusOK
	if s.store != nil {
		h := s.store.Health()
		resp.Store = &h
		if h.Err != "" {
			resp.Status = "degraded"
			status = http.StatusInternalServerError
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client gone
}
