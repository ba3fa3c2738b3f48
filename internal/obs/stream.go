package obs

import (
	"bufio"
	"fmt"
	"io"

	"ivm/internal/memsys"
)

// Streaming export: the ring tracer always keeps the most recent
// window, so a run longer than the ring capacity silently loses its
// oldest events from the export. CSVStream removes that truncation
// boundary by writing each event as a CSV row the moment it is
// observed, through a buffered writer that is flushed in windows — a
// run of any length exports losslessly, at the cost of I/O riding on
// the simulation (attach it only when the full timeline is wanted;
// the detached hot loop stays free as always).

// DefaultStreamFlushEvery is the flush window of a CSVStream: how many
// rows may sit in the buffer before it is forced to the underlying
// writer, so a consumer tailing the file sees progress in bounded
// windows.
const DefaultStreamFlushEvery = 1 << 12

// CSVStream is a memsys.Listener that exports the event timeline as
// CSV incrementally. The row format is byte-identical to WriteCSV:
// on a run that fits a tracer's ring, streaming the run and exporting
// the ring produce the same bytes; on longer runs the stream keeps
// everything the ring dropped. Errors are sticky: the first write
// error stops further output and is returned by Err and Close.
type CSVStream struct {
	w    *bufio.Writer
	rows int64 // rows written since the last forced flush
	n    int64 // total event rows written
	err  error
}

// NewCSVStream builds a streaming exporter over w and writes the CSV
// header immediately. Install it with System.SetListener, or
// alongside a tracer via Tee.
func NewCSVStream(w io.Writer) *CSVStream {
	s := &CSVStream{w: bufio.NewWriter(w)}
	_, err := fmt.Fprintln(s.w, csvHeader)
	s.err = err
	return s
}

// Observe implements memsys.Listener: one CSV row per event, flushed
// every DefaultStreamFlushEvery rows.
func (s *CSVStream) Observe(e memsys.Event) {
	if s.err != nil {
		return
	}
	ev := Event{Clock: e.Clock, Port: e.Port.ID, Label: e.Port.Label, CPU: e.Port.CPU, Bank: e.Bank, Kind: e.Kind, Blocker: -1}
	if e.Blocker != nil {
		ev.Blocker = e.Blocker.ID
	}
	if s.err = writeCSVRow(s.w, ev); s.err != nil {
		return
	}
	s.n++
	s.rows++
	if s.rows >= DefaultStreamFlushEvery {
		s.err = s.w.Flush()
		s.rows = 0
	}
}

// Rows returns the number of event rows written so far (the header is
// not counted).
func (s *CSVStream) Rows() int64 { return s.n }

// Err returns the first write error, if any.
func (s *CSVStream) Err() error { return s.err }

// Close flushes the buffered tail. The underlying writer is not
// closed — the caller owns it. Close reports the sticky error, so a
// deferred Close surfaces mid-run write failures.
func (s *CSVStream) Close() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}
