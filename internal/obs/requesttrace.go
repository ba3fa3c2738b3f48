package obs

import (
	"fmt"
	"io"
)

// Request-trace export: completed API requests rendered as a fourth
// Chrome trace process, "requests", beside the banks/ports/workers
// tracks. Each retained request gets its own thread lane holding one
// outer slice for the request (named by endpoint, with the request ID
// in args so a trace can be grepped for one ID, and each phase's
// count, total and maximum) and one child slice per span its summary
// kept (decode and encode, and the slowest of gate, canonicalise,
// cache-probe and simulate), so one slow request's anatomy reads
// directly off the timeline.

// chromePidRequests is the trace process ID of the request track
// (banks, ports and sweep workers are 1-3, see chrometrace.go).
const chromePidRequests = 4

// RequestTrace is one completed, exportable request: identity, HTTP
// outcome, when it ran (nanoseconds since the serving process's
// epoch), and the summary of its spans (stamped relative to the
// request's start).
type RequestTrace struct {
	ID       string
	Endpoint string
	Status   int
	StartNS  int64
	DurNS    int64
	Trace    TraceSummary
}

// requestChromeEvents renders the requests as trace events: process
// metadata, one thread per request (named by its ID), the request
// slice and its span children.
func requestChromeEvents(reqs []RequestTrace) []chromeEvent {
	out := []chromeEvent{
		meta("process_name", chromePidRequests, 0, map[string]any{"name": "requests"}),
	}
	for tid, r := range reqs {
		out = append(out,
			meta("thread_name", chromePidRequests, tid, map[string]any{"name": "req " + r.ID}))
		dur := r.DurNS / 1000
		if dur < 1 {
			dur = 1
		}
		args := map[string]any{"id": r.ID, "status": fmt.Sprintf("%d", r.Status)}
		for _, p := range r.Trace.Phases() {
			args[p.Name] = fmt.Sprintf("%dx total %dus max %dus", p.Count, p.TotalNS/1000, p.MaxNS/1000)
		}
		if r.Trace.Dropped > 0 {
			args["spans_dropped"] = r.Trace.Dropped
		}
		out = append(out, chromeEvent{
			Name: r.Endpoint, Ph: "X", Ts: r.StartNS / 1000, Dur: dur,
			Pid: chromePidRequests, Tid: tid, Cat: "request", Args: args,
		})
		for _, sp := range r.Trace.Spans {
			sd := sp.DurNS / 1000
			if sd < 1 {
				sd = 1
			}
			out = append(out, chromeEvent{
				Name: sp.Name, Ph: "X", Ts: (r.StartNS + sp.StartNS) / 1000, Dur: sd,
				Pid: chromePidRequests, Tid: tid, Cat: "span",
				Args: map[string]any{"id": r.ID},
			})
		}
	}
	return out
}

// WriteRequestTrace renders completed requests as a Chrome
// trace_event JSON document (the "requests" process). An empty set
// still yields a valid document holding only the process metadata.
func WriteRequestTrace(w io.Writer, reqs []RequestTrace) error {
	return encodeChromeDoc(w, requestChromeEvents(reqs))
}
