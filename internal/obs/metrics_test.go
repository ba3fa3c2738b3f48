package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/stats"
	"ivm/internal/sweep"
)

// populatedSnapshot builds a snapshot with all three sources filled
// from real runs, so the round trip exercises every field.
func populatedSnapshot(t *testing.T) Snapshot {
	t.Helper()

	eng := sweep.NewEngine(sweep.Options{Workers: 2})
	eng.Grid(8, 2)
	es := eng.Snapshot()

	sys := memsys.New(memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2})
	col := stats.Attach(sys)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 6))
	sys.Run(128)
	cs := col.Snapshot()

	sys2 := memsys.New(memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2})
	tr := Attach(sys2, 128)
	sys2.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys2.AddPort(1, "2", memsys.NewInfiniteStrided(0, 6))
	sys2.Run(128)
	ts := tr.Stats()

	h, _, err := TracePhaseHistogram(fig3Cfg, fig3Specs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	return Snapshot{Engine: &es, Stats: &cs, Trace: &ts, PhaseHistogram: &h}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := populatedSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, snap)
	}
	// The snapshot must expose the headline quantities by name.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache_hit_rate", "per_worker", "utilization", "bank_conflicts", "mean_cycle_clocks"} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("snapshot JSON lacks %q", key)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	snap := populatedSnapshot(t)
	path := t.TempDir() + "/metrics.json"
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got Snapshot
	if err := json.NewDecoder(f).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Error("file round trip drifted")
	}
}

// TestSnapshotIgnoresUnknownFields pins forward compatibility:
// a snapshot written by a newer build — unknown sections, unknown keys
// inside known sections, unknown histogram fields — must decode
// without error, keeping the fields this build knows.
func TestSnapshotIgnoresUnknownFields(t *testing.T) {
	in := `{
	  "engine": {"workers": 2, "future_counter": 7,
	             "metrics": {"cache_hits": 3, "warp_hits": 9}},
	  "trace": {"grants": 5, "quantum_flux": true},
	  "phase_histogram": {"cycle_start": 0, "cycle_length": 2, "banks": 1,
	                      "phases": [{"grants": 1, "axion": 4}, {}],
	                      "axion_field": [1, 2, 3]},
	  "hologram": {"nested": {"deep": 1}}
	}`
	var s Snapshot
	if err := json.Unmarshal([]byte(in), &s); err != nil {
		t.Fatalf("future snapshot rejected: %v", err)
	}
	if s.Engine == nil || s.Engine.Workers != 2 || s.Engine.Metrics.CacheHits != 3 {
		t.Errorf("engine section mangled: %+v", s.Engine)
	}
	if s.Trace == nil || s.Trace.Grants != 5 {
		t.Errorf("trace section mangled: %+v", s.Trace)
	}
	if s.PhaseHistogram == nil || s.PhaseHistogram.CycleLength != 2 ||
		len(s.PhaseHistogram.Phases) != 2 || s.PhaseHistogram.Phases[0].Grants != 1 {
		t.Errorf("phase histogram mangled: %+v", s.PhaseHistogram)
	}
}

// TestOldReaderSkipsPhaseHistogram simulates the reverse direction: a
// build from before the phase_histogram field decodes a current
// snapshot without error, dropping only what it does not know.
func TestOldReaderSkipsPhaseHistogram(t *testing.T) {
	snap := populatedSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// The pre-histogram Snapshot shape.
	var old struct {
		Engine *sweep.Snapshot `json:"engine,omitempty"`
		Stats  *stats.Snapshot `json:"stats,omitempty"`
		Trace  *TraceStats     `json:"trace,omitempty"`
	}
	if err := json.Unmarshal(buf.Bytes(), &old); err != nil {
		t.Fatalf("old reader choked on a new snapshot: %v", err)
	}
	if old.Engine == nil || old.Trace == nil || old.Stats == nil {
		t.Error("old reader lost known sections")
	}
	// And its re-encoded output still reads back here.
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("old snapshot rejected: %v", err)
	}
	if back.PhaseHistogram != nil {
		t.Error("histogram resurrected from an old snapshot")
	}
}

func TestRegistryServesJSON(t *testing.T) {
	reg := NewRegistry()
	eng := sweep.NewEngine(sweep.Options{})
	eng.Grid(8, 2)
	reg.Register("engine", func() any { return eng.Snapshot() })
	reg.Register("static", func() any { return map[string]int{"answer": 42} })

	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics endpoint not JSON: %v", err)
	}
	if _, ok := doc["engine"]; !ok {
		t.Error("engine source missing")
	}
	var es sweep.Snapshot
	if err := json.Unmarshal(doc["engine"], &es); err != nil {
		t.Fatal(err)
	}
	if es.Metrics.PairsSwept == 0 {
		t.Error("engine snapshot empty")
	}
}

func TestRegistryServeEndToEnd(t *testing.T) {
	reg := NewRegistry()
	reg.Register("static", func() any { return map[string]int{"answer": 42} })

	addr, closer, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback here: %v", err)
	}
	defer closer.Close()

	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !json.Valid(body) {
			t.Errorf("GET %s: not JSON: %.80s", path, body)
		}
	}

	// /metrics is the Prometheus text exposition, live even with no
	// registered sources thanks to the ivm_up gauge.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{"# TYPE ivm_up gauge", "ivm_up 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}

	// /healthz is the liveness probe.
	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("/healthz: status %d body %q", resp.StatusCode, body)
	}
}
