package obs

import (
	"fmt"
	"io"
	"sort"

	"ivm/internal/sweep"
)

// Sweep worker timeline export: the engine's TimelineEvents rendered
// as one Chrome trace process, "sweep workers", with one thread per
// pool slot. Work items, canonicalisation and simulation spans become
// 'X' slices; cache hits and misses become thread-scoped 'i' instants,
// so chrome://tracing and Perfetto paint the memoisation pattern
// directly onto the worker lanes.

// workerChromeEvents converts the timeline into trace events:
// metadata naming the worker process and its threads, then one slice
// or instant per event. Timestamps are nanoseconds mapped to the
// format's microsecond unit; slice durations are clamped to 1us so
// sub-microsecond spans stay visible.
func workerChromeEvents(events []sweep.TimelineEvent) []chromeEvent {
	out := []chromeEvent{
		meta("process_name", chromePidWorkers, 0, map[string]any{"name": "sweep workers"}),
	}
	workers := map[int]bool{}
	for _, e := range events {
		workers[e.Worker] = true
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out,
			meta("thread_name", chromePidWorkers, id, map[string]any{"name": fmt.Sprintf("worker %d", id)}))
	}
	for _, e := range events {
		args := map[string]any{}
		if e.Item >= 0 {
			args["item"] = e.Item
		}
		if e.Family != "" {
			args["family"] = e.Family
		}
		if len(args) == 0 {
			args = nil
		}
		ce := chromeEvent{
			Name: e.Kind.String(), Ts: e.StartNS / 1000,
			Pid: chromePidWorkers, Tid: e.Worker, Cat: "sweep", Args: args,
		}
		if e.Kind.Instant() {
			ce.Ph, ce.S = "i", "t"
		} else {
			ce.Ph = "X"
			ce.Dur = e.DurNS / 1000
			if ce.Dur < 1 {
				ce.Dur = 1
			}
		}
		out = append(out, ce)
	}
	return out
}

// WriteWorkerTrace renders the sweep worker timeline as a Chrome
// trace_event JSON document (ivmsweep -trace-out). The timeline is
// wall-clock time, so it is its own document: a simulation's clock-unit
// bank and port tracks come from WriteChromeTrace (ivmsim -trace-out).
func WriteWorkerTrace(w io.Writer, events []sweep.TimelineEvent) error {
	return encodeChromeDoc(w, workerChromeEvents(events))
}
