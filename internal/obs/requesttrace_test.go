package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteRequestTrace checks the Chrome trace_event document built
// from completed requests: the "requests" process metadata, one named
// thread per request, the outer endpoint slice carrying the request ID
// and status, and the span children.
func TestWriteRequestTrace(t *testing.T) {
	reqs := []RequestTrace{
		{ID: "req-a", Endpoint: "bandwidth", Status: 200, StartNS: 5_000, DurNS: 2_000_000,
			Spans: []Span{{Name: "decode", StartNS: 100, DurNS: 50_000}, {Name: "simulate", StartNS: 60_000, DurNS: 1_500_000}}},
		{ID: "req-b", Endpoint: "sweep", Status: 400, StartNS: 9_000_000, DurNS: 300},
	}
	var buf bytes.Buffer
	if err := WriteRequestTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  int64          `json:"dur,omitempty"`
			Args map[string]any `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not a trace document: %v\n%s", err, buf.String())
	}
	var procName, threads, slices, spans int
	for _, ev := range doc.TraceEvents {
		if ev.Pid != chromePidRequests {
			t.Errorf("event %q on pid %d, want %d", ev.Name, ev.Pid, chromePidRequests)
		}
		switch {
		case ev.Name == "process_name":
			procName++
			if ev.Args["name"] != "requests" {
				t.Errorf("process named %v", ev.Args["name"])
			}
		case ev.Name == "thread_name":
			threads++
		case ev.Ph == "X" && (ev.Name == "bandwidth" || ev.Name == "sweep"):
			slices++
			if ev.Args["id"] == "" {
				t.Errorf("request slice %q lacks its id arg", ev.Name)
			}
			if ev.Dur < 1 {
				t.Errorf("request slice %q has dur %d, want >= 1us", ev.Name, ev.Dur)
			}
		case ev.Ph == "X":
			spans++
		}
	}
	if procName != 1 || threads != 2 || slices != 2 || spans != 2 {
		t.Errorf("got process=%d threads=%d slices=%d spans=%d, want 1/2/2/2",
			procName, threads, slices, spans)
	}
	// The export is the artifact an operator greps a request ID out of.
	if !strings.Contains(buf.String(), "req-a") || !strings.Contains(buf.String(), "req-b") {
		t.Error("request IDs not greppable in the export")
	}
}

// TestWriteRequestTraceEmpty: no requests still yields a valid
// document (process metadata only).
func TestWriteRequestTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequestTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Errorf("no traceEvents key: %s", buf.String())
	}
}
