package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivm/internal/memsys"
)

// Regenerate the goldens with:
//
//	go test ./internal/obs -run TestExporterGolden -update
var update = flag.Bool("update", false, "rewrite the exporter golden files")

// theorem3Example traces the Theorem 3 synchronisation example: the
// pair d1=1, d2=7 on m=12, nc=3 is conflict-free in the cyclic state
// (Fig. 2), but from b2=0 both streams start on bank 0, so the window
// shows the transient — a delay, then the streams locking into the
// conflict-free cycle.
func theorem3Example(t *testing.T) []Event {
	t.Helper()
	sys := memsys.New(memsys.Config{Banks: 12, BankBusy: 3, CPUs: 2})
	tr := Attach(sys, TracerOptions{})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 7))
	sys.Run(36)
	events := tr.Events()
	if tr.Delays() == 0 {
		t.Fatal("example should show a synchronisation transient")
	}
	return events
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; run with -update after verifying.\ngot:\n%s", name, got)
	}
}

func TestExporterGoldenChromeTrace(t *testing.T) {
	events := theorem3Example(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 12, 3); err != nil {
		t.Fatal(err)
	}
	golden(t, "chrometrace.json", buf.Bytes())

	// The export must be a loadable trace_event document.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var grants, delays, metas int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			metas++
		case "X":
			if e["cat"] == "grant" {
				grants++
			} else {
				delays++
			}
		}
	}
	if metas < 14 { // 2 processes + 12 banks at least
		t.Errorf("only %d metadata events", metas)
	}
	if grants == 0 || delays == 0 {
		t.Errorf("trace has %d grants, %d delays; want both > 0", grants, delays)
	}
}

func TestExporterGoldenStripChart(t *testing.T) {
	events := theorem3Example(t)
	got := StripChart(events, 12, 3)
	golden(t, "strip.txt", []byte(got))
	if !strings.Contains(got, "bank occupancy") || !strings.Contains(got, "grants") {
		t.Errorf("strip chart missing sections:\n%s", got)
	}
}

func TestCSVTimeline(t *testing.T) {
	events := theorem3Example(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "clock,port,label,cpu,bank,kind,blocker" {
		t.Fatalf("bad header %q", lines[0])
	}
	if len(lines) != len(events)+1 {
		t.Fatalf("%d rows for %d events", len(lines)-1, len(events))
	}
	var sawGrant, sawDelay bool
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 7 {
			t.Fatalf("row %q has %d fields", l, len(fields))
		}
		switch fields[5] {
		case "grant":
			sawGrant = true
			if fields[6] != "" {
				t.Errorf("grant row with blocker: %q", l)
			}
		case "bank", "simultaneous", "section":
			sawDelay = true
			if fields[6] == "" {
				t.Errorf("delay row without blocker: %q", l)
			}
		default:
			t.Errorf("unknown kind %q in %q", fields[5], l)
		}
	}
	if !sawGrant || !sawDelay {
		t.Errorf("timeline lacks grant (%v) or delay (%v) rows", sawGrant, sawDelay)
	}
}

func TestStripChartEmptyWindow(t *testing.T) {
	if got := StripChart(nil, 4, 2); !strings.Contains(got, "no events") {
		t.Errorf("empty window rendered %q", got)
	}
}

func TestChromeTraceEmptyWindow(t *testing.T) {
	// An empty window (tracer attached but nothing ran) must still
	// produce a loadable document: process/bank metadata, no slices.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, 4, 2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
	for _, e := range doc.TraceEvents {
		if e["ph"] != "M" {
			t.Errorf("empty window emitted a non-metadata event: %v", e)
		}
	}
	if len(doc.TraceEvents) != 2+4 { // 2 processes + 4 bank threads
		t.Errorf("%d metadata events, want 6", len(doc.TraceEvents))
	}
	// Bad geometry fails fast, whatever the window holds.
	if err := WriteChromeTrace(&buf, theorem3Example(t), 0, 0); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestWriteCSVEmptyWindow(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "clock,port,label,cpu,bank,kind,blocker\n" {
		t.Errorf("empty window wrote %q", buf.String())
	}
}

// TestCSVRingWrappedBeforeExport pins the documented truncation
// boundary of the ring exporter: once the ring wraps, WriteCSV holds
// exactly the newest capacity rows, the first row is NOT the start of
// the run, and TraceStats.Dropped accounts for the missing prefix —
// the lossless alternative is CSVStream (see stream_test.go).
func TestCSVRingWrappedBeforeExport(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 12, BankBusy: 3, CPUs: 2})
	tr := Attach(sys, TracerOptions{Capacity: 32})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 7))
	sys.Run(256) // 2 events per clock >> 32
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 32+1 {
		t.Fatalf("wrapped ring exported %d rows, want capacity 32", len(lines)-1)
	}
	firstClock := strings.SplitN(lines[1], ",", 2)[0]
	if firstClock == "0" {
		t.Error("export starts at clock 0 despite the wrap")
	}
	st := tr.Stats()
	if st.Dropped != st.Grants+st.Delays-32 {
		t.Errorf("dropped %d of %d events, ring holds 32", st.Dropped, st.Grants+st.Delays)
	}
}
