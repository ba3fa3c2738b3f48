package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ivm/internal/memsys"
)

// TestCSVStreamByteIdenticalToRing: on a run that fits the ring, the
// streaming exporter and the ring exporter must produce the same
// bytes — the acceptance contract that lets either be swapped in.
func TestCSVStreamByteIdenticalToRing(t *testing.T) {
	var streamed bytes.Buffer
	sys := fig3()
	tr := NewTracer(TracerOptions{Capacity: 4096})
	cs := NewCSVStream(&streamed)
	sys.SetListener(Tee{tr, cs})
	sys.Run(500)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	var ring bytes.Buffer
	if err := WriteCSV(&ring, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), ring.Bytes()) {
		t.Errorf("stream and ring exports differ:\nstream %d bytes, ring %d bytes",
			streamed.Len(), ring.Len())
	}
	if cs.Rows() != tr.Grants()+tr.Delays() {
		t.Errorf("stream wrote %d rows, tracer observed %d events", cs.Rows(), tr.Grants()+tr.Delays())
	}
}

// TestCSVStreamLosslessPastRingCapacity: on a run ~10x the ring, the
// ring truncates to its capacity while the stream keeps every event;
// the ring's window must equal the tail of the streamed export.
func TestCSVStreamLosslessPastRingCapacity(t *testing.T) {
	const capacity = 64
	var streamed bytes.Buffer
	sys := fig3()
	tr := NewTracer(TracerOptions{Capacity: capacity})
	cs := NewCSVStream(&streamed)
	sys.SetListener(Tee{tr, cs})

	// fig3 produces 2 events per clock; 10x the ring capacity in events.
	sys.Run(10 * capacity / 2)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Dropped == 0 {
		t.Fatal("run was meant to wrap the ring")
	}
	if cs.Rows() != st.Grants+st.Delays {
		t.Errorf("stream wrote %d rows, want all %d events", cs.Rows(), st.Grants+st.Delays)
	}

	var ring bytes.Buffer
	if err := WriteCSV(&ring, tr.Events()); err != nil {
		t.Fatal(err)
	}
	streamLines := strings.Split(strings.TrimRight(streamed.String(), "\n"), "\n")
	ringLines := strings.Split(strings.TrimRight(ring.String(), "\n"), "\n")
	if len(streamLines) != int(cs.Rows())+1 {
		t.Fatalf("stream file has %d lines for %d rows", len(streamLines), cs.Rows())
	}
	// Ring rows (minus header) are the tail of the streamed rows.
	tail := streamLines[len(streamLines)-(len(ringLines)-1):]
	for i, want := range ringLines[1:] {
		if tail[i] != want {
			t.Fatalf("row %d of ring window: stream tail %q, ring %q", i, tail[i], want)
		}
	}
	// The truncation boundary is real: the ring window starts after the
	// stream's first event.
	firstRing := strings.SplitN(ringLines[1], ",", 2)[0]
	firstStream := strings.SplitN(streamLines[1], ",", 2)[0]
	if firstRing == firstStream {
		t.Errorf("ring window unexpectedly starts at the run start (clock %s)", firstRing)
	}
}

// errWriter fails after n writes, for sticky-error behaviour.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestCSVStreamStickyError(t *testing.T) {
	cs := NewCSVStream(&errWriter{n: 1})
	sys := fig3()
	sys.SetListener(cs)
	// Two events per clock: enough rows for several flush windows, so
	// the second write reaches the failing writer mid-run.
	sys.Run(DefaultStreamFlushEvery)
	if cs.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if err := cs.Close(); err == nil {
		t.Fatal("Close swallowed the sticky error")
	}
	rows := cs.Rows()
	sys.Run(8)
	if cs.Rows() != rows {
		t.Error("stream kept writing after the error")
	}
}

func TestCSVStreamHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	cs := NewCSVStream(&buf)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != csvHeader+"\n" {
		t.Errorf("empty stream wrote %q", got)
	}
	_ = memsys.Config{} // keep the memsys import tied to this file's theme
}
