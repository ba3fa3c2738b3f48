package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"ivm/internal/sweep"
)

// syntheticTimeline is a fixed worker timeline for the golden test:
// wall-clock timings from a real engine run are nondeterministic, so
// the golden pins the rendering, and TestWorkerTraceFromEngine checks
// a live run separately.
func syntheticTimeline() []sweep.TimelineEvent {
	return []sweep.TimelineEvent{
		{Worker: 0, Kind: sweep.TimelineCanon, StartNS: 1_000, DurNS: 500, Item: -1, Family: "pair"},
		{Worker: 0, Kind: sweep.TimelineCacheMiss, StartNS: 2_000, Item: -1, Family: "pair"},
		{Worker: 0, Kind: sweep.TimelineFindCycle, StartNS: 2_500, DurNS: 40_000, Item: -1},
		{Worker: 0, Kind: sweep.TimelineSimulate, StartNS: 2_500, DurNS: 45_000, Item: -1, Family: "pair"},
		{Worker: 0, Kind: sweep.TimelineItem, StartNS: 1_000, DurNS: 50_000, Item: 0},
		{Worker: 1, Kind: sweep.TimelineCanon, StartNS: 3_000, DurNS: 400, Item: -1, Family: "pair"},
		{Worker: 1, Kind: sweep.TimelineCacheHit, StartNS: 4_000, Item: -1, Family: "pair"},
		{Worker: 1, Kind: sweep.TimelineItem, StartNS: 3_000, DurNS: 2_000, Item: 1},
	}
}

func TestWorkerTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCombinedChromeTrace(&buf, nil, 0, 0, syntheticTimeline()); err != nil {
		t.Fatal(err)
	}
	golden(t, "workertrace.json", buf.Bytes())
}

func TestCombinedTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCombinedChromeTrace(&buf, theorem3Example(t), 12, 3, syntheticTimeline()); err != nil {
		t.Fatal(err)
	}
	golden(t, "combinedtrace.json", buf.Bytes())
}

// traceShape parses a trace_event document and tallies its events.
type traceShape struct {
	metas, slices, instants int
	workerPids              int
}

func parseTrace(t *testing.T, data []byte) traceShape {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var s traceShape
	for _, e := range doc.TraceEvents {
		pid, _ := e["pid"].(float64)
		if int(pid) == chromePidWorkers {
			s.workerPids++
		}
		switch e["ph"] {
		case "M":
			s.metas++
		case "X":
			s.slices++
		case "i":
			s.instants++
			if e["s"] != "t" {
				t.Errorf("instant without thread scope: %v", e)
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	return s
}

// TestWorkerTraceFromEngine drives a real parallel sweep with a
// timeline attached and checks the export is a well-formed document
// with worker slices and cache hit/miss instants — the half of the
// contract the fixed-timing golden cannot cover.
func TestWorkerTraceFromEngine(t *testing.T) {
	tl := sweep.NewTimeline(0)
	e := sweep.NewEngine(sweep.Options{Workers: 4, Timeline: tl})
	e.Grid(12, 3)
	var buf bytes.Buffer
	if err := WriteCombinedChromeTrace(&buf, nil, 0, 0, tl.Events()); err != nil {
		t.Fatal(err)
	}
	s := parseTrace(t, buf.Bytes())
	if s.slices == 0 || s.instants == 0 {
		t.Errorf("engine trace has %d slices, %d instants; want both > 0", s.slices, s.instants)
	}
	if s.workerPids != len(buf.Bytes()) && s.workerPids == 0 {
		t.Error("no events on the worker process track")
	}
	m := e.Metrics()
	// Every placement emits exactly one instant: an analytic-gate hit, a
	// cache hit, or a cache miss.
	probes := m.AnalyticHits + m.CacheHits + m.CacheMisses
	if int64(s.instants) != probes {
		t.Errorf("%d instants for %d placement verdicts", s.instants, probes)
	}
	if m.AnalyticHits == 0 {
		t.Error("no analytic-hit instants on the 12-bank grid")
	}
}

func TestCombinedTraceHalves(t *testing.T) {
	// Worker-only: no simulation events.
	var buf bytes.Buffer
	if err := WriteCombinedChromeTrace(&buf, nil, 0, 0, syntheticTimeline()); err != nil {
		t.Fatal(err)
	}
	s := parseTrace(t, buf.Bytes())
	if s.instants != 2 || s.slices != 6 {
		t.Errorf("worker-only trace has %d instants, %d slices", s.instants, s.slices)
	}
	// Sim-only: same events WriteChromeTrace would emit, plus the (empty)
	// worker process metadata.
	buf.Reset()
	if err := WriteCombinedChromeTrace(&buf, theorem3Example(t), 12, 3, nil); err != nil {
		t.Fatal(err)
	}
	parseTrace(t, buf.Bytes())
	// Bad sim geometry still fails fast.
	if err := WriteCombinedChromeTrace(&buf, theorem3Example(t), 0, 0, nil); err == nil {
		t.Error("bad geometry accepted")
	}
}
