package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export: the traced window rendered as two
// processes — "banks" (one thread per bank, each grant an 'X' slice
// lasting the bank busy time) and "ports" (one thread per port, each
// delayed clock a one-clock slice named after its conflict kind).
// Clock periods are mapped to microseconds, the format's time unit, so
// one clock reads as 1us in chrome://tracing or Perfetto.

// Process IDs of the trace tracks: simulation banks and ports, plus
// the sweep-engine worker pool (see WriteWorkerTrace).
const (
	chromePidBanks   = 1
	chromePidPorts   = 2
	chromePidWorkers = 3
)

// chromeEvent is one trace_event entry. Field order is fixed and args
// is a sorted-key map, so the marshalled output is deterministic and
// suitable for golden-file tests.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Cat  string `json:"cat,omitempty"`
	// S is the scope of an instant ('i') event — "t" pins it to its
	// thread lane; empty for every other phase.
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// simChromeEvents builds the bank/port trace tracks of a simulation
// event window: metadata naming the two processes and their threads,
// then one slice per event.
func simChromeEvents(events []Event, banks, bankBusy int) ([]chromeEvent, error) {
	if banks <= 0 || bankBusy <= 0 {
		return nil, fmt.Errorf("obs: bad chrome trace geometry banks=%d busy=%d", banks, bankBusy)
	}
	out := []chromeEvent{
		meta("process_name", chromePidBanks, 0, map[string]any{"name": "banks"}),
		meta("process_name", chromePidPorts, 0, map[string]any{"name": "ports"}),
	}
	for b := 0; b < banks; b++ {
		out = append(out,
			meta("thread_name", chromePidBanks, b, map[string]any{"name": fmt.Sprintf("bank %d", b)}))
	}
	for _, p := range portsOf(events) {
		name := fmt.Sprintf("port %d", p.id)
		if p.label != "" {
			name = fmt.Sprintf("port %d (stream %s)", p.id, p.label)
		}
		out = append(out,
			meta("thread_name", chromePidPorts, p.id, map[string]any{"name": name}))
	}
	for _, e := range events {
		if e.Granted() {
			out = append(out, chromeEvent{
				Name: "stream " + portName(e), Ph: "X", Ts: e.Clock, Dur: int64(bankBusy),
				Pid: chromePidBanks, Tid: e.Bank, Cat: "grant",
				Args: map[string]any{"port": e.Port, "cpu": e.CPU},
			})
			continue
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String() + " conflict", Ph: "X", Ts: e.Clock, Dur: 1,
			Pid: chromePidPorts, Tid: e.Port, Cat: "delay",
			Args: map[string]any{"bank": e.Bank, "blocker": e.Blocker},
		})
	}
	return out, nil
}

func encodeChromeDoc(w io.Writer, events []chromeEvent) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeDoc{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTrace renders the events as a Chrome trace_event JSON
// document. banks and bankBusy describe the simulated system (the
// bank busy time is the duration painted for each grant). An empty
// window still yields a valid document: the process and bank thread
// metadata with no slices.
func WriteChromeTrace(w io.Writer, events []Event, banks, bankBusy int) error {
	evs, err := simChromeEvents(events, banks, bankBusy)
	if err != nil {
		return err
	}
	return encodeChromeDoc(w, evs)
}

func meta(name string, pid, tid int, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args}
}

func portName(e Event) string {
	if e.Label != "" {
		return e.Label
	}
	return fmt.Sprintf("%d", e.Port)
}

type portInfo struct {
	id    int
	label string
}

// portsOf lists the distinct ports appearing in the events, by ID.
func portsOf(events []Event) []portInfo {
	seen := make(map[int]string)
	for _, e := range events {
		seen[e.Port] = e.Label
	}
	out := make([]portInfo, 0, len(seen))
	for id, label := range seen {
		out = append(out, portInfo{id: id, label: label})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// WriteCSV renders the events as a CSV timeline with one row per
// event: clock, port, label, cpu, bank, kind, blocker. Grants carry
// kind "grant" and an empty blocker column. It exports the window the
// ring retained: on a run longer than the tracer's capacity the oldest
// events are gone (TraceStats.Dropped counts them), so the first row
// marks the truncation boundary, not the start of the run. A ring
// sized to the run keeps it all.
func WriteCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "clock,port,label,cpu,bank,kind,blocker"); err != nil {
		return err
	}
	for _, e := range events {
		kind, blocker := "grant", ""
		if !e.Granted() {
			kind = e.Kind.String()
			blocker = fmt.Sprintf("%d", e.Blocker)
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%s,%s\n",
			e.Clock, e.Port, e.Label, e.CPU, e.Bank, kind, blocker); err != nil {
			return err
		}
	}
	return nil
}
