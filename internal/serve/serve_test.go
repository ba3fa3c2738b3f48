package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ivm/internal/cachestore"
	"ivm/internal/rat"
	"ivm/internal/sweep"
)

// newTestServer builds a Server (failing the test on error) and mounts
// it on an httptest server.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body to url and returns the status and raw response
// bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// pinnedPairSpec is the probe spec whose answer is byte-pinned: the
// unique-barrier pair m=16 nc=4 (1,2), provable under eq-29.
const pinnedPairSpec = `{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`

// pinnedPairResult is its exact response. Changing these bytes is an
// API break: cmd/ivmserved's TestServeAndWarmRestart probes a live
// ivmserved for them.
const pinnedPairResult = `{"family":"pair","b_eff":"3/2","num":3,"den":2,"path":"analytic","theorem":"eq-29"}` + "\n"

// TestServeBandwidthPinned byte-pins the bandwidth endpoint on the
// probe pair.
func TestServeBandwidthPinned(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	status, body := postJSON(t, ts.URL+"/v1/bandwidth", pinnedPairSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if string(body) != pinnedPairResult {
		t.Fatalf("response drifted:\n got %q\nwant %q", body, pinnedPairResult)
	}
}

// tripleSpecJSON renders a triple-census spec (one stream per CPU) as
// its wire form.
func tripleSpecJSON(m, nc int, d, b [3]int) string {
	return fmt.Sprintf(`{"m":%d,"nc":%d,"streams":[{"d":%d,"b":%d,"cpu":0},{"d":%d,"b":%d,"cpu":1},{"d":%d,"b":%d,"cpu":2}]}`,
		m, nc, d[0], b[0], d[1], b[1], d[2], b[2])
}

// TestServeBatch pins /v1/batch: results in input order, each
// byte-identical to the single-query answer modulo path, with the path
// split accounting for every result.
func TestServeBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	specs := []string{
		tripleSpecJSON(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2}),
		tripleSpecJSON(13, 4, [3]int{1, 2, 6}, [3]int{1, 2, 3}), // translate of the first
		pinnedPairSpec,
	}
	status, body := postJSON(t, ts.URL+"/v1/batch", `{"specs":[`+strings.Join(specs, ",")+`]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if len(resp.Results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(resp.Results), len(specs))
	}
	total := 0
	for _, n := range resp.Paths {
		total += n
	}
	if total != len(specs) {
		t.Fatalf("path split %v covers %d of %d results", resp.Paths, total, len(specs))
	}
	if resp.Paths["analytic"] != 1 {
		t.Fatalf("path split %v: the pinned pair should gate analytically", resp.Paths)
	}
	// The translated triple shares its orbit with the first: within one
	// batch that is one simulation plus one cache hit (either order).
	if resp.Paths["cache"]+resp.Paths["sim-packed"] != 2 {
		t.Fatalf("path split %v: triples should split sim/cache", resp.Paths)
	}
	if a, b := resp.Results[0], resp.Results[1]; a.BEff != b.BEff || a.Num != b.Num || a.Den != b.Den {
		t.Fatalf("translated triple differs: %+v vs %+v", a, b)
	}
	if got := resp.Results[2]; got.BEff != "3/2" || got.Path != "analytic" {
		t.Fatalf("pinned pair in batch: %+v", got)
	}
}

// TestServeSweep pins /v1/sweep: m NDJSON rows in b2 order, values
// byte-identical to the in-process engine's resolutions.
func TestServeSweep(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/v1/sweep?m=13&nc=4&d1=1&d2=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	var rows []SweepRowJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row SweepRowJSON
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("%v in %s", err, sc.Text())
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("%d rows, want m=13", len(rows))
	}
	for b2, row := range rows {
		if row.B2 != b2 {
			t.Fatalf("row %d carries b2=%d", b2, row.B2)
		}
		spec := sweep.PairSpec(13, 4, 1, 6)
		spec.Streams[1].Sweep = false
		spec.Streams[1].B = b2
		want, err := srv.Engine().Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		if row.BEff != want.BW.String() {
			t.Fatalf("b2=%d: served %s, engine %s", b2, row.BEff, want.BW)
		}
	}
}

// TestServeErrors pins the failure surface: wrong methods are 405,
// malformed or invalid requests 400, and every error body is JSON.
func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	cases := []struct {
		name string
		want int
		run  func() (int, []byte)
	}{
		{"bandwidth GET", 405, func() (int, []byte) { return get(ts.URL + "/v1/bandwidth") }},
		{"bandwidth bad JSON", 400, func() (int, []byte) { return postJSON(t, ts.URL+"/v1/bandwidth", "{") }},
		{"bandwidth bad spec", 400, func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/bandwidth", `{"m":16,"nc":4,"streams":[{"d":17,"b":0,"cpu":0}]}`)
		}},
		{"batch GET", 405, func() (int, []byte) { return get(ts.URL + "/v1/batch") }},
		{"batch empty", 400, func() (int, []byte) { return postJSON(t, ts.URL+"/v1/batch", `{"specs":[]}`) }},
		{"sweep POST", 405, func() (int, []byte) { return postJSON(t, ts.URL+"/v1/sweep", "{}") }},
		{"sweep missing m", 400, func() (int, []byte) { return get(ts.URL + "/v1/sweep?nc=4&d1=1&d2=2") }},
		// A sweep of m rows is an m-spec batch: m beyond MaxBatch is
		// refused before anything sized by m is allocated.
		{"sweep m over MaxBatch", 400, func() (int, []byte) {
			return get(fmt.Sprintf("%s/v1/sweep?m=%d&nc=4&d1=1&d2=2", ts.URL, MaxBatch+1))
		}},
		{"sweep huge m", 400, func() (int, []byte) {
			return get(fmt.Sprintf("%s/v1/sweep?m=%d&nc=4&d1=1&d2=2", ts.URL, 1<<40))
		}},
		{"sweep unknown parameter", 400, func() (int, []byte) {
			return get(ts.URL + "/v1/sweep?m=12&s=3&nc=4&d1=1&d2=2&consecutive=1")
		}},
	}
	for _, tc := range cases {
		status, body := tc.run()
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
}

// TestServeHealthzAndMetrics pins the operability surface: /healthz is
// "ok" with store integrity attached, and /metrics carries the
// ivmserved_* counters after traffic.
func TestServeHealthzAndMetrics(t *testing.T) {
	dir := t.TempDir()
	store, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, ts := newTestServer(t, Options{Workers: 1, Store: store})

	if status, body := postJSON(t, ts.URL+"/v1/bandwidth", pinnedPairSpec); status != 200 {
		t.Fatalf("probe: %d %s", status, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d: %s", resp.StatusCode, body)
	}
	var h HealthJSON
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Store == nil {
		t.Fatalf("healthz %s", body)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		`ivmserved_requests_total{endpoint="bandwidth"} 1`,
		`ivmserved_responses_total{path="analytic"} 1`,
		`ivmserved_store_up 1`,
		`ivmserved_cache_seeded_records 0`,
	} {
		if !bytes.Contains(metrics, []byte(line)) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestServeRejectsDisabledCache pins the constructor guard: a server
// without a cache cannot exist.
func TestServeRejectsDisabledCache(t *testing.T) {
	if _, err := New(Options{CacheSize: -1}); err == nil {
		t.Fatal("cache-disabled server constructed")
	}
}

// TestServeRestartWarmStart is the acceptance scenario: resolve a
// batch against a persistent store, crash (leaving a torn frame on the
// log, as a kill mid-write would), restart against the same directory,
// and re-issue the same batch. Every previously resolved spec must
// answer with path=cache, byte-identical to the in-process engine's
// answer; the torn tail is skipped and counted, never a crash.
func TestServeRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	batch := `{"specs":[` + strings.Join([]string{
		tripleSpecJSON(13, 4, [3]int{1, 2, 6}, [3]int{0, 1, 2}),
		tripleSpecJSON(13, 4, [3]int{1, 3, 5}, [3]int{0, 1, 2}),
		tripleSpecJSON(12, 3, [3]int{1, 2, 4}, [3]int{0, 0, 0}),
	}, ",") + `]}`

	store1, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Workers: 2, Store: store1})
	status, cold := postJSON(t, ts1.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("cold batch: %d %s", status, cold)
	}
	var coldResp BatchResponse
	if err := json.Unmarshal(cold, &coldResp); err != nil {
		t.Fatal(err)
	}
	if coldResp.Paths["sim-packed"] == 0 {
		t.Fatalf("cold batch never simulated: %v", coldResp.Paths)
	}
	if err := store1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close — tear the log by appending half a frame, as a
	// kill mid-append would leave it.
	f, err := os.OpenFile(filepath.Join(dir, cachestore.LogName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	store2, err := cachestore.Open(dir)
	if err != nil {
		t.Fatalf("restart against torn log: %v", err)
	}
	defer store2.Close()
	if skipped, _ := store2.Skipped(); skipped == 0 {
		t.Fatal("torn tail not detected")
	}
	srv2, ts2 := newTestServer(t, Options{Workers: 2, Store: store2})
	if srv2.Seeded() == 0 {
		t.Fatal("restart seeded nothing")
	}
	status, warm := postJSON(t, ts2.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("warm batch: %d %s", status, warm)
	}
	var warmResp BatchResponse
	if err := json.Unmarshal(warm, &warmResp); err != nil {
		t.Fatal(err)
	}
	if n := warmResp.Paths["cache"]; n != len(warmResp.Results) {
		t.Fatalf("warm batch paths %v: every spec was resolved before the restart", warmResp.Paths)
	}

	// Byte-identical to the in-process answer: resolve the same specs
	// on a fresh engine and render through the same wire conversion.
	var req BatchRequest
	if err := json.Unmarshal([]byte(batch), &req); err != nil {
		t.Fatal(err)
	}
	eng := sweep.NewEngine(sweep.Options{Workers: 1})
	for i, sj := range req.Specs {
		spec, err := sj.Spec()
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(resultJSON(want))
		if err != nil {
			t.Fatal(err)
		}
		got := warmResp.Results[i]
		got.Path = want.Path.String() // in-process first resolve simulates; served one hits
		got.CycleLength = 0
		got.Clocks = 0
		var wantRes ResultJSON
		if err := json.Unmarshal(wantJSON, &wantRes); err != nil {
			t.Fatal(err)
		}
		wantRes.CycleLength = 0
		wantRes.Clocks = 0
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err = json.Marshal(wantRes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("spec %d: warm response %s, in-process %s", i, gotJSON, wantJSON)
		}
	}
}

// A restarted server must hold its whole store in cache: with more
// records than DefaultCacheSize/2, New sizes the cache at twice the
// record count, and every seeded record must stay resident — no shard
// may overflow and drop its generation while the store is replayed.
// The records are synthetic 4-stream entries (SeedCache checks shape
// only), drawn like the batch workloads' specs.
func TestServeNewSeedsWholeStore(t *testing.T) {
	const n = 40000
	if n <= sweep.DefaultCacheSize/2 {
		t.Fatalf("%d records do not exceed DefaultCacheSize/2", n)
	}
	dir := t.TempDir()
	store, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	want := make(map[string]sweep.CacheRecord, n)
	for len(want) < n {
		rec := sweep.CacheRecord{Family: "stream4", M: 16, NC: 4,
			CPUs: make([]int, 4), Vec: make([]int, 8),
			BW: rat.New(int64(1+r.IntN(8)), 4)}
		for j := range rec.CPUs {
			rec.CPUs[j] = r.IntN(2)
			rec.Vec[j] = 1 + r.IntN(15)
			rec.Vec[4+j] = r.IntN(16)
		}
		if _, dup := want[recordID(rec)]; !dup {
			want[recordID(rec)] = rec
			store.Put(rec)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, err = cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s, err := New(Options{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	eng := s.Engine()
	if got := eng.Metrics().CacheEntries; got != n {
		t.Fatalf("cache holds %d of %d seeded records", got, n)
	}
	if ev := eng.CacheEvicted(); ev != 0 {
		t.Fatalf("seeding evicted %d entries", ev)
	}
	got := eng.CacheRecords()
	if len(got) != n {
		t.Fatalf("CacheRecords returned %d records, want %d", len(got), n)
	}
	for _, rec := range got {
		w, ok := want[recordID(rec)]
		if !ok || w.BW != rec.BW {
			t.Fatalf("CacheRecords returned %+v, not a seeded record", rec)
		}
	}
}

// Once New has seeded the engine from a store, the store keeps none of
// the records it loaded: with the server dropped and the store still
// open, the heap retained over the store's 1<<16 records stays under a
// byte per record (the records themselves take about 200 B each).
func TestServeNewReleasesStoreRecords(t *testing.T) {
	const n = 1 << 16
	dir := t.TempDir()
	store, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		store.Put(sweep.CacheRecord{Family: "stream4", M: 16, NC: 4, CPUs: []int{0, 1, 0, 1},
			Vec: []int{1, 3, 5, 7, i % 16, i / 16 % 16, i / 256 % 16, i / 4096}, BW: rat.New(1, 2)})
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	before := liveHeap()
	store, err = cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s, err := New(Options{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Seeded(); got != n {
		t.Fatalf("seeded %d of %d records", got, n)
	}
	if got := len(store.Records()); got != 0 {
		t.Fatalf("store still holds %d records after seeding", got)
	}
	s = nil
	per := float64(liveHeap()-before) / n
	t.Logf("%.2f B retained per record", per)
	if per >= 1 {
		t.Errorf("store retains %.2f B per record after seeding, want under 1", per)
	}
	runtime.KeepAlive(store)
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// recordID is a cache record's content address as a map key.
func recordID(rec sweep.CacheRecord) string {
	return fmt.Sprint(rec.Family, rec.M, rec.S, rec.NC, rec.CPUs, rec.Vec)
}
