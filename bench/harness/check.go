package harness

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"ivm/internal/rat"
	"ivm/internal/serve"
	"ivm/internal/sweep"
)

// pinsJSON holds the pinned answer digests: per seed for the generated
// workloads, once for the census (its inputs do not depend on the
// seed). A seed without a pin is checked against the oracle alone.
//
//go:embed pins.json
var pinsJSON []byte

type pinSet struct {
	// Universe pins the oracle answers of the first pinUniverse specs
	// of serve-single's universe, by seed.
	Universe map[string]string `json:"serve-single"`
	// Batches pins the answers to the first pinBatches batches of the
	// batch generator (batch-cold, and restart-warm's prelude), by seed.
	Batches map[string]string `json:"batch"`
	// Census pins the rendered tables of one census pass, full and
	// quick.
	Census      string `json:"sweep-census"`
	CensusQuick string `json:"sweep-census-quick"`
}

// The pinned prefixes: small enough that quick mode covers them.
const (
	pinUniverse = 256
	pinBatches  = 8
)

var pins = func() pinSet {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("pins.json: " + err.Error())
	}
	return p
}()

// checkPin compares a digest with its pin, failing the result on a
// mismatch.
func (r *Result) checkPin(what, got, want string) {
	r.Digest = got
	if want == "" {
		return
	}
	r.Pinned = true
	if got != want {
		r.fail("%s digest %s, pinned %s", what, got, want)
	}
}

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

// answerDigest is a running SHA-256 over exact answers in order.
type answerDigest struct{ h hash.Hash }

func newDigest() *answerDigest { return &answerDigest{h: sha256.New()} }

func (d *answerDigest) add(v rat.Rational) { fmt.Fprintf(d.h, "%d/%d\n", v.Num, v.Den) }

func (d *answerDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// oracle resolves specs on a cold engine with every fast path off: no
// cache, no analytic gate, the scalar kernel, each placement simulated
// as given rather than through its canonical representative.
func oracle(specs []sweep.ConfigSpec) ([]rat.Rational, error) {
	off := false
	eng := sweep.NewEngine(sweep.Options{CacheSize: -1, Analytic: &off, PackedKernel: &off})
	res, err := eng.ResolveBatch(specs)
	if err != nil {
		return nil, err
	}
	out := make([]rat.Rational, len(res))
	for i, r := range res {
		out[i] = r.BW
	}
	return out, nil
}

// toSpecs converts wire specs to engine specs.
func toSpecs(sjs []serve.SpecJSON) ([]sweep.ConfigSpec, error) {
	out := make([]sweep.ConfigSpec, len(sjs))
	for i, sj := range sjs {
		spec, err := sj.Spec()
		if err != nil {
			return nil, err
		}
		out[i] = spec
	}
	return out, nil
}

// gateable reports whether the analytic gate may answer a spec: the
// theorems cover sectionless two-stream memories under fixed priority.
func gateable(sj serve.SpecJSON) bool {
	return sj.S == 0 && len(sj.Streams) == 2 && (sj.Priority == "" || sj.Priority == "fixed")
}

// checkSingle checks a /v1/bandwidth response against the expected
// answer.
func checkSingle(want rat.Rational) func([]byte) error {
	return func(resp []byte) error {
		var rj serve.ResultJSON
		if err := json.Unmarshal(resp, &rj); err != nil {
			return fmt.Errorf("bad response: %v", err)
		}
		if rj.Num != want.Num || rj.Den != want.Den {
			return fmt.Errorf("b_eff %d/%d, want %d/%d", rj.Num, rj.Den, want.Num, want.Den)
		}
		return nil
	}
}

// decodeBatch parses a /v1/batch response carrying n results.
func decodeBatch(resp []byte, n int) ([]rat.Rational, error) {
	var br serve.BatchResponse
	if err := json.Unmarshal(resp, &br); err != nil {
		return nil, fmt.Errorf("bad response: %v", err)
	}
	if len(br.Results) != n {
		return nil, fmt.Errorf("%d results for %d specs", len(br.Results), n)
	}
	out := make([]rat.Rational, n)
	for i, r := range br.Results {
		out[i] = rat.Rational{Num: r.Num, Den: r.Den}
	}
	return out, nil
}
