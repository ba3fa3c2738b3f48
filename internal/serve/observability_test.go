package serve

// Tests of the request-scoped observability layer: trace-ID
// propagation, the access and slow-query logs, the statusWriter's
// Flusher passthrough, the duration histogram, /statusz and the
// Chrome-trace export of recent requests.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ivm/internal/obs"
	"ivm/internal/sweep"
)

// syncWriter serialises the access log against test readers.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestStatusWriterForwardsFlush pins the Flusher passthrough: an
// instrumented handler flushes one line, blocks until the client has
// read it off the wire, then writes the rest — impossible unless the
// statusWriter forwards Flush to the underlying writer while the
// handler is still running.
func TestStatusWriterForwardsFlush(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	h := s.instrument(2, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("instrumented writer does not expose http.Flusher")
			return
		}
		fmt.Fprintln(w, "first")
		f.Flush()
		<-release // held until the client confirms receipt
		fmt.Fprintln(w, "second")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n') // deadlocks into the client timeout if Flush is swallowed
	if err != nil || line != "first\n" {
		t.Fatalf("first flushed line: %q, %v", line, err)
	}
	close(release)
	rest, err := io.ReadAll(br)
	if err != nil || string(rest) != "second\n" {
		t.Fatalf("rest of body: %q, %v", rest, err)
	}

	// The interface-upgrade fallback: http.ResponseController reaches
	// the real writer through Unwrap.
	var w any = &statusWriter{ResponseWriter: httptest.NewRecorder()}
	if _, ok := w.(http.Flusher); !ok {
		t.Error("statusWriter does not implement http.Flusher")
	}
	if _, ok := w.(interface{ Unwrap() http.ResponseWriter }); !ok {
		t.Error("statusWriter does not implement Unwrap")
	}
}

// TestRequestIDPropagation checks the trace-ID contract: an incoming
// X-Request-ID is honored and echoed, a hostile one is sanitised, and
// an absent one is minted.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post := func(id string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bandwidth", strings.NewReader(pinnedPairSpec))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
		resp.Body.Close()
		return resp
	}
	if got := post("trace-me-42").Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("honored ID = %q, want trace-me-42", got)
	}
	if got := post("bad id{with}junk!").Header.Get("X-Request-ID"); got != "badidwithjunk" {
		t.Errorf("sanitised ID = %q, want badidwithjunk", got)
	}
	minted := post("").Header.Get("X-Request-ID")
	if minted == "" || !strings.Contains(minted, "-") {
		t.Errorf("minted ID = %q, want <base>-<seq>", minted)
	}
	if again := post("").Header.Get("X-Request-ID"); again == minted {
		t.Errorf("minted IDs repeat: %q", again)
	}
}

// TestAccessLog checks the one-line-per-request slog contract: the
// request ID is byte-greppable and the line carries endpoint, status,
// answer path and theorem — for a single query and for a sweep, whose
// line names the sweep's dominant answer path.
func TestAccessLog(t *testing.T) {
	var logw syncWriter
	_, ts := newTestServer(t, Options{
		Workers:   1,
		AccessLog: slog.New(slog.NewJSONHandler(&logw, nil)),
	})
	get := func(method, path, body, id string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // body irrelevant here
		resp.Body.Close()
	}
	get(http.MethodPost, "/v1/bandwidth", pinnedPairSpec, "grep-me-123")
	// m=12 nc=3 (1,3) is gated at every start (eq-29).
	get(http.MethodGet, "/v1/sweep?m=12&nc=3&d1=1&d2=3", "", "grep-sweep-456")

	for id, want := range map[string]map[string]any{
		"grep-me-123": {
			"msg": "request", "id": "grep-me-123", "endpoint": "bandwidth",
			"status": 200.0, "path": "analytic", "theorem": "eq-29", "results": 1.0,
		},
		"grep-sweep-456": {
			"msg": "request", "id": "grep-sweep-456", "endpoint": "sweep",
			"status": 200.0, "path": "analytic", "family": "pair", "results": 12.0,
		},
	} {
		line := accessLogLine(t, &logw, id)
		for key, v := range want {
			if got := line[key]; got != v {
				t.Errorf("%s: access log %s = %v, want %v", id, key, got, v)
			}
		}
		if dur, ok := line["dur_ms"].(float64); !ok || dur < 0 {
			t.Errorf("%s: access log dur_ms = %v", id, line["dur_ms"])
		}
	}
}

// accessLogLine waits for the access-log line of request id (written
// after the response, so a beat behind the client) and decodes it.
func accessLogLine(t *testing.T, logw *syncWriter, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, raw := range strings.Split(logw.String(), "\n") {
			if !strings.Contains(raw, `"id":"`+id+`"`) {
				continue
			}
			var line map[string]any
			if err := json.Unmarshal([]byte(raw), &line); err != nil {
				t.Fatalf("access log line is not JSON: %v\n%s", err, raw)
			}
			return line
		}
		if time.Now().After(deadline) {
			t.Fatalf("request ID %s never reached the access log:\n%s", id, logw.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlowQueryLog drives a request over an immediately-tripping slow
// threshold and checks both surfaces: the WARN log line with the span
// breakdown, and the /statusz slow-request section with provenance.
func TestSlowQueryLog(t *testing.T) {
	var logw syncWriter
	_, ts := newTestServer(t, Options{
		Workers:       1,
		AccessLog:     slog.New(slog.NewJSONHandler(&logw, nil)),
		SlowThreshold: time.Nanosecond,
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bandwidth", strings.NewReader(pinnedPairSpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body irrelevant here
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logw.String(), "slow request") {
		if time.Now().After(deadline) {
			t.Fatalf("no slow-request WARN logged:\n%s", logw.String())
		}
		time.Sleep(time.Millisecond)
	}
	raw := logw.String()
	var warn map[string]any
	for _, l := range strings.Split(raw, "\n") {
		if strings.Contains(l, "slow request") {
			if err := json.Unmarshal([]byte(l), &warn); err != nil {
				t.Fatalf("WARN line not JSON: %v", err)
			}
		}
	}
	if warn["level"] != "WARN" || warn["id"] != "slow-1" || warn["path"] != "analytic" {
		t.Errorf("slow WARN = %v", warn)
	}
	spans, _ := warn["spans"].(string)
	if !strings.Contains(spans, "decode:") || !strings.Contains(spans, "gate:") {
		t.Errorf("span breakdown %q lacks decode/gate phases", spans)
	}

	sresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	for _, want := range []string{"slow requests", "slow-1", "path=analytic theorem=eq-29", "decode:"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/statusz lacks %q", want)
		}
	}
}

// TestStatuszPage checks the page renders every section with live
// numbers after some traffic.
func TestStatuszPage(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	postJSON(t, ts.URL+"/v1/bandwidth", pinnedPairSpec)
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"ivmserved status", "uptime:", "endpoints", "bandwidth", "p95",
		"answer paths", "analytic", "engine", "cache evicted:     0", "cache hit rate", "slow requests",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/statusz lacks %q:\n%s", want, page)
		}
	}
}

// TestRequestTraceExport drives one identified request and finds it in
// the Chrome-trace export with its resolve-phase spans.
func TestRequestTraceExport(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bandwidth", strings.NewReader(pinnedPairSpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-export-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body irrelevant here
	resp.Body.Close()

	tresp, err := http.Get(ts.URL + "/debug/requests.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	doc, _ := io.ReadAll(tresp.Body)
	var parsed map[string]any
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	for _, want := range []string{`"requests"`, "trace-export-7", `"bandwidth"`, `"decode"`, `"gate"`, `"encode"`} {
		if !bytes.Contains(doc, []byte(want)) {
			t.Errorf("trace export lacks %s", want)
		}
	}
}

// TestBatchTraceKeepsHandlerSpans sends a batch whose engine spans
// overrun the trace bound: the retained trace still holds exactly one
// decode and one encode span beside DefaultTraceContextCapacity engine
// spans, and the slow-query log's spans_dropped counts the rest.
func TestBatchTraceKeepsHandlerSpans(t *testing.T) {
	var logw syncWriter
	s, ts := newTestServer(t, Options{
		Workers:       1,
		AccessLog:     slog.New(slog.NewJSONHandler(&logw, nil)),
		SlowThreshold: time.Nanosecond,
	})
	// The gate is active for strides (2, 4) on m=8 but declines this
	// placement, so every spec records gate, canonicalise and
	// cache-probe spans, and the first one also simulate.
	const n = 512
	spec := `{"m":8,"nc":2,"streams":[{"d":2,"b":0,"cpu":0},{"d":4,"b":2,"cpu":1}]}`
	body := `{"specs":[` + strings.Repeat(spec+",", n-1) + spec + `]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "big-batch")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body irrelevant here
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var warn map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for warn == nil {
		for _, l := range strings.Split(logw.String(), "\n") {
			if strings.Contains(l, "slow request") && strings.Contains(l, `"id":"big-batch"`) {
				if err := json.Unmarshal([]byte(l), &warn); err != nil {
					t.Fatalf("WARN line not JSON: %v", err)
				}
			}
		}
		if warn == nil && time.Now().After(deadline) {
			t.Fatalf("no slow-request WARN logged:\n%s", logw.String())
		}
		time.Sleep(time.Millisecond)
	}
	traces, _ := s.traces.snapshot()
	byName := map[string]int{}
	for _, tr := range traces {
		if tr.ID == "big-batch" {
			for _, sp := range tr.Spans {
				byName[sp.Name]++
			}
		}
	}
	if byName[spanDecode] != 1 || byName[spanEncode] != 1 {
		t.Errorf("retained spans %v, want one decode and one encode", byName)
	}
	engine := byName[sweep.SpanGate] + byName[sweep.SpanCanon] + byName[sweep.SpanCacheProbe] + byName[sweep.SpanSimulate]
	if engine != obs.DefaultTraceContextCapacity {
		t.Errorf("retained %d engine spans, want %d", engine, obs.DefaultTraceContextCapacity)
	}
	if dropped, attempted := warn["spans_dropped"], 3*n+1; dropped != float64(attempted-engine) {
		t.Errorf("spans_dropped = %v, want %d of %d attempted", dropped, attempted-engine, attempted)
	}
}

// TestDurationHistogram pins the native-histogram metric: _count
// equals the requests served per endpoint and the bucket series carry
// le labels.
func TestDurationHistogram(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	const n = 3
	for i := 0; i < n; i++ {
		postJSON(t, ts.URL+"/v1/bandwidth", pinnedPairSpec)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	out := string(metrics)
	for _, want := range []string{
		"# TYPE ivmserved_request_duration_seconds histogram",
		fmt.Sprintf(`ivmserved_request_duration_seconds_count{endpoint="bandwidth"} %d`, n),
		fmt.Sprintf(`ivmserved_request_duration_seconds_bucket{endpoint="bandwidth",le="+Inf"} %d`, n),
		`ivmserved_request_duration_seconds_bucket{endpoint="bandwidth",le="`,
		`ivmserved_request_duration_seconds_sum{endpoint="bandwidth"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, out)
		}
	}
	// The JSON mirror exposes the same counts with quantile estimates.
	jresp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var mj struct {
		Requests map[string]struct {
			Count int64   `json:"count"`
			P95   float64 `json:"p95_seconds"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&mj); err != nil {
		t.Fatal(err)
	}
	bw := mj.Requests["bandwidth"]
	if bw.Count != n || bw.P95 <= 0 {
		t.Errorf("metrics.json requests.bandwidth = %+v, want count %d and p95 > 0", bw, n)
	}
}

// TestSweepStreamsRows checks the NDJSON sweep flushes rows (the
// Flusher bug's user-visible symptom was a fully buffered response):
// each row must parse independently and the response must carry the
// streaming content type.
func TestSweepStreamsRows(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/sweep?m=8&nc=2&d1=1&d2=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for sc.Scan() {
		var row SweepRowJSON
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v", rows, err)
		}
		if row.B2 != rows {
			t.Errorf("row %d out of order: b2=%d", rows, row.B2)
		}
		rows++
	}
	if rows != 8 {
		t.Errorf("streamed %d rows, want 8", rows)
	}
}

// TestSanitizeRequestID pins the ID hygiene rules.
func TestSanitizeRequestID(t *testing.T) {
	for raw, want := range map[string]string{
		"":                       "",
		"ok-id_1.2:3/4":          "ok-id_1.2:3/4",
		"bad id\n{}\"":           "badid",
		"\x00\x01\x02":           "",
		strings.Repeat("a", 300): strings.Repeat("a", maxRequestIDLen),
	} {
		if got := sanitizeRequestID(raw); got != want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", raw, got, want)
		}
	}
}

// scrape fetches /metrics and indexes every sample line by its series
// (name plus label set, as printed).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestServedCountersAgree drives a mixed batch — a gated pair, a
// simulated 4-stream spec and its repeat, a cache hit — plus one sweep,
// and checks that every counter of answered placements reads the one
// engine tally: ivmserved_responses_total per path equals the paths the
// responses carried, the tally summed over families, and
// ivm_provenance_path_total summed over families; and that each
// endpoint's request count is its histogram's _count.
func TestServedCountersAgree(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	four := `{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},{"d":3,"b":5,"cpu":1},{"d":5,"b":2,"cpu":0},{"d":7,"b":9,"cpu":1}]}`
	status, body := postJSON(t, ts.URL+"/v1/batch", `{"specs":[`+pinnedPairSpec+`,`+four+`,`+four+`]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int64{}
	for _, r := range batch.Results {
		seen[r.Path]++
	}
	if seen["analytic"] != 1 || seen["sim-packed"] != 1 || seen["cache"] != 1 {
		t.Fatalf("batch paths %v, want one analytic, one sim-packed, one cache", seen)
	}
	resp, err := http.Get(ts.URL + "/v1/sweep?m=13&nc=4&d1=1&d2=6")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row SweepRowJSON
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		seen[row.Path]++
	}
	resp.Body.Close()

	m := scrape(t, ts.URL)
	tally := srv.Engine().Tally()
	for p := sweep.PathAnalytic; p <= sweep.PathSimPacked; p++ {
		var fromTally int64
		var fromProv float64
		for fam, f := range tally {
			fromTally += f.Count(p)
			fromProv += m[fmt.Sprintf(`ivm_provenance_path_total{family=%q,path=%q}`, fam, p)]
		}
		got := m[fmt.Sprintf(`ivmserved_responses_total{path=%q}`, p)]
		if got != float64(seen[p.String()]) || got != float64(fromTally) || got != fromProv {
			t.Errorf("path %s: responses_total %g, responses carried %d, tally %d, provenance %g",
				p, got, seen[p.String()], fromTally, fromProv)
		}
	}
	for _, ep := range endpointNames {
		label := fmt.Sprintf(`{endpoint=%q}`, ep)
		if req, n := m["ivmserved_requests_total"+label], m["ivmserved_request_duration_seconds_count"+label]; req != n {
			t.Errorf("%s: requests_total %g != histogram _count %g", ep, req, n)
		}
	}
	if m[`ivmserved_requests_total{endpoint="batch"}`] != 1 || m[`ivmserved_requests_total{endpoint="sweep"}`] != 1 {
		t.Errorf("request counts drifted: batch %g, sweep %g",
			m[`ivmserved_requests_total{endpoint="batch"}`], m[`ivmserved_requests_total{endpoint="sweep"}`])
	}
}
