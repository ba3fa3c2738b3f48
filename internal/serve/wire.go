package serve

// The wire types of the /v1 API. Field order is fixed by these struct
// definitions, so responses are byte-stable — TestServeBandwidthPinned
// and cmd/ivmserved's live test pin the bandwidth endpoint's exact
// bytes for a known pair, and the restart acceptance test compares
// responses across server restarts byte for byte. The bandwidth and batch endpoints decode requests
// with codec.go's scanner and append responses as encoding/json writes
// these definitions; clients marshal SpecJSON and BatchRequest.
// docs/SERVING.md documents every field.

import (
	"fmt"
	"strings"

	"ivm/internal/cachestore"
	"ivm/internal/memsys"
	"ivm/internal/sweep"
)

// StreamJSON is one access stream of a request spec: stride d issued
// from CPU cpu, starting at bank b. All of d and b must already be
// reduced into [0, m).
type StreamJSON struct {
	D   int `json:"d"`
	B   int `json:"b"`
	CPU int `json:"cpu"`
}

// SpecJSON is the request form of sweep.ConfigSpec: m banks, s
// sections (0 or absent for sectionless), bank busy time nc, the
// policy fields — priority ("fixed", "cyclic", "rr-cpu") and mapping
// ("cyclic", "consecutive"); absent fields mean the defaults, unknown
// strings are a 400, never a silent default — and one stream per port
// in priority order.
type SpecJSON struct {
	M        int          `json:"m"`
	S        int          `json:"s,omitempty"`
	NC       int          `json:"nc"`
	Priority string       `json:"priority,omitempty"`
	Mapping  string       `json:"mapping,omitempty"`
	Streams  []StreamJSON `json:"streams"`
}

// Spec converts the wire form to the engine's ConfigSpec. The policy
// strings are parsed strictly (policy); structural validation happens
// in the engine.
func (sj SpecJSON) Spec() (sweep.ConfigSpec, error) {
	streams := make([]sweep.Stream, len(sj.Streams))
	for i, st := range sj.Streams {
		streams[i] = sweep.Stream{D: st.D, B: st.B, CPU: st.CPU}
	}
	spec := sweep.ConfigSpec{M: sj.M, S: sj.S, NC: sj.NC, Streams: streams}
	var err error
	if spec.Priority, err = policy("field", "priority", sj.Priority, memsys.ParsePriority); err != nil {
		return spec, err
	}
	spec.Mapping, err = policy("field", "mapping", sj.Mapping, memsys.ParseMapping)
	return spec, err
}

// policy parses a priority or mapping name with its memsys parser, the
// one vocabulary of every wire surface; the empty name is the default.
// An unknown name is an error naming where it came from, such as
// `field "priority"` or `parameter "mapping"`, with memsys's text.
func policy[T any](kind, name, value string, parse func(string) (T, error)) (T, error) {
	var v T
	if value == "" {
		return v, nil
	}
	v, err := parse(value)
	if err != nil {
		return v, fmt.Errorf("%s %q: %s", kind, name, strings.TrimPrefix(err.Error(), "memsys: "))
	}
	return v, nil
}

// ResultJSON is one resolved placement: the effective bandwidth as an
// exact fraction (b_eff is its rendered form, num/den the parts), the
// configuration family, and the provenance of the answer — path is
// "analytic", "cache", "sim-scalar" or "sim-packed"; theorem is the
// paper theorem/equation identifier on analytic answers; canonical is
// the orbit representative that keyed the cache on cache/simulation
// answers; cycle_length and clocks are the simulation cost on misses.
type ResultJSON struct {
	Family      string `json:"family"`
	BEff        string `json:"b_eff"`
	Num         int64  `json:"num"`
	Den         int64  `json:"den"`
	Path        string `json:"path"`
	Theorem     string `json:"theorem,omitempty"`
	Canonical   []int  `json:"canonical,omitempty"`
	CycleLength int64  `json:"cycle_length,omitempty"`
	Clocks      int64  `json:"clocks,omitempty"`
}

// BatchRequest is the /v1/batch request body.
type BatchRequest struct {
	Specs []SpecJSON `json:"specs"`
}

// BatchResponse is the /v1/batch response: results in input order and
// the batch's answer-path split (path name -> count).
type BatchResponse struct {
	Results []ResultJSON   `json:"results"`
	Paths   map[string]int `json:"paths"`
}

// HealthJSON is the /healthz response: "ok" or "degraded", with the
// persistent store's integrity summary when one is attached.
type HealthJSON struct {
	Status string             `json:"status"`
	Store  *cachestore.Health `json:"store,omitempty"`
}
