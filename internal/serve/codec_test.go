package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"ivm/internal/rat"
	"ivm/internal/sweep"
)

// reflectiveDecode is the route every body took before the scanner,
// and the one it falls back to: encoding/json into the wire types,
// then SpecJSON.Spec per spec, with the batch checks in their order.
func reflectiveDecode(body []byte, batch bool) ([]sweep.ConfigSpec, error) {
	if batch {
		return decodeBatchJSON(body)
	}
	return decodeSpecJSON(body)
}

// checkDecode holds decodeSpecs to reflectiveDecode on one body in
// one shape: both accept with DeepEqual specs, or both refuse with the
// same text.
func checkDecode(t *testing.T, body []byte, batch bool) {
	t.Helper()
	got, gotErr := decodeSpecs(body, batch)
	want, wantErr := reflectiveDecode(body, batch)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("batch=%v %q: decodeSpecs error %v, reflective error %v", batch, body, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("batch=%v %q: error %q, reflective %q", batch, body, gotErr, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("batch=%v %q: specs\n%+v\nreflective\n%+v", batch, body, got, want)
	}
}

// batchColdBody renders n specs shaped like ivmbench's batch-cold
// batches: four streams on an (m = 16, n_c = 4) memory shared by two
// CPUs, every distance and start drawn at random.
func batchColdBody(n int) []byte {
	r := rand.New(rand.NewSource(int64(n)))
	req := BatchRequest{Specs: make([]SpecJSON, n)}
	for i := range req.Specs {
		sj := SpecJSON{M: 16, NC: 4, Streams: make([]StreamJSON, 4)}
		for j := range sj.Streams {
			sj.Streams[j] = StreamJSON{D: 1 + r.Intn(15), B: r.Intn(16), CPU: r.Intn(2)}
		}
		req.Specs[i] = sj
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// plainSpecs and plainBatches are bodies in the scanner's plain subset
// of the single and the batch shape; fallbackBodies are outside it in
// both shapes.
var (
	plainSpecs = []string{
		pinnedPairSpec,
		" \t\n{ \"m\" : 12 ,\r\n \"s\":4, \"nc\":4 , \"streams\" : [ { \"d\" : 1 , \"b\":0,\"cpu\":0 } , {\"d\":3,\"b\":5,\"cpu\":1} ] }\n\n",
		`{"m":123456789012345,"nc":-4,"streams":[{"d":-0,"b":0,"cpu":0}]}`,
		`{"m":16,"nc":4,"priority":"fixed","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
		`{"m":16,"nc":4,"priority":"cyclic","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
		`{"m":16,"nc":4,"priority":"rr-cpu","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
		`{"m":16,"nc":4,"priority":"","mapping":"","streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"s":4,"nc":4,"mapping":"cyclic","streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"s":4,"nc":4,"mapping":"consecutive","streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"s":4,"nc":4,"consecutive":true,"streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"s":4,"nc":4,"consecutive":false,"mapping":"cyclic","streams":[]}`,
		`{"m":16,"s":4,"nc":4,"consecutive":true,"mapping":"consecutive","streams":[]}`,
		`{"m":16,"s":4,"nc":4,"consecutive":true,"mapping":"","streams":[]}`,
		`{"nc":4}`,
		`{}`,
	}
	plainBatches = []string{
		`{"specs":[` + pinnedPairSpec + `]}`,
		`{"specs":[{"m":16,"nc":4,"priority":"cyclic","streams":[]},{"m":16,"s":4,"consecutive":true}]}`,
		`{"specs":[]}`,
		`{"specs":[{}]}`,
		`{"specs":[{},{"streams":[{}]}]}`,
		` { "specs" : [ { } ] } `,
		`{}`,
		string(batchColdBody(3)),
	}
	fallbackBodies = []string{
		`{"M":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"NC":4,"streams":[{"D":1,"b":0,"cpu":0}]}`,
		`{"Specs":[` + pinnedPairSpec + `]}`,
		`{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}],"streams":[{"d":2,"b":1,"cpu":1}]}`,
		`{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0,"d":3}]}`,
		`{"specs":[` + pinnedPairSpec + `],"specs":[` + pinnedPairSpec + `]}`,
		`null`,
		`{"specs":null}`,
		`{"specs":[null]}`,
		`{"m":null,"nc":4,"streams":null}`,
		`{"m":16,"nc":4,"streams":[null,{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"nc":4,"priority":"\u0063yclic","streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"\u006d":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16.0,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":1e2,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":1234567890123456,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":016,"nc":4,"streams":[]}`,
		`{"m":16,"nc":4,"extra":1,"streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0,"w":2}]}`,
		pinnedPairSpec + ` trailing`,
		pinnedPairSpec + `{}`,
		`{"specs":[` + pinnedPairSpec + `]} ]`,
		`{"m":16,"nc":4,"priority":"lru","streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"s":4,"nc":4,"mapping":"Cyclic","streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"m":16,"s":4,"nc":4,"consecutive":true,"mapping":"cyclic","streams":[{"d":1,"b":0,"cpu":0}]}`,
		`{"specs":[{"m":16,"nc":4,"streams":[]},{"m":16,"nc":4,"consecutive":true,"mapping":"cyclic","streams":[]}]}`,
		`{"m":16,"nc":4,"consecutive":1,"streams":[]}`,
		`{"m":"16","nc":4,"streams":[]}`,
		`{"family":"caf\u00e9","m":16,"streams":[]}`,
		"{\"m\":16,\"priority\":\"caf\xc3\xa9\",\"streams\":[]}",
		"{\"m\":16,\"priority\":\"tab\there\",\"streams\":[]}",
		`[]`,
		`{`,
		``,
		`   `,
		`{"m":16,`,
		`{"m":-,"nc":4}`,
		`{"m":16 "nc":4}`,
		`{"m":16,,"nc":4}`,
		`{"m":16,}`,
		`{"specs":[{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},]}]}`,
		`{"specs":[[{"m":16}]]}`,
		`{"m":truex}`,
		`{"consecutive":tru}`,
	}
)

// FuzzDecodeSpecs holds the scanner and its fallback to the reflective
// route on any body, in both request shapes.
func FuzzDecodeSpecs(f *testing.F) {
	for _, seeds := range [][]string{plainSpecs, plainBatches, fallbackBodies} {
		for _, seed := range seeds {
			f.Add([]byte(seed))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, false)
		checkDecode(t, body, true)
	})
}

// TestDecodeSpecsSeeds pins which seeds take the scanner in which
// shape, and that a 512-spec batch-cold body does, its streams carved
// from one backing array.
func TestDecodeSpecsSeeds(t *testing.T) {
	plain := map[bool]map[string]bool{false: {}, true: {}}
	for _, body := range plainSpecs {
		plain[false][body] = true
	}
	for _, body := range plainBatches {
		plain[true][body] = true
	}
	for _, body := range slices.Concat(plainSpecs, plainBatches, fallbackBodies) {
		for _, batch := range []bool{false, true} {
			if _, ok := scanSpecs([]byte(body), batch); ok != plain[batch][body] {
				t.Errorf("batch=%v %q: scanned %v, want %v", batch, body, ok, plain[batch][body])
			}
		}
	}
	specs, ok := scanSpecs(batchColdBody(512), true)
	if !ok || len(specs) != 512 {
		t.Fatalf("batch-cold body: %d specs, plain %v", len(specs), ok)
	}
	backing := unsafe.Slice(unsafe.SliceData(specs[0].Streams), 4*len(specs))
	for i, spec := range specs {
		if len(spec.Streams) != 4 || cap(spec.Streams) != 4 || &spec.Streams[0] != &backing[4*i] {
			t.Fatalf("spec %d: streams not a capped subslice of the shared backing", i)
		}
	}
}

// syntheticResults covers every answer path, each optional field both
// set and zero, unreduced and integral fractions, and strings that
// need escaping: quotes, backslashes, the HTML-significant bytes,
// control characters, non-ASCII, the JavaScript line separators and
// invalid UTF-8.
func syntheticResults() []sweep.Resolution {
	return []sweep.Resolution{
		{BW: rat.New(3, 2), Family: "pair", Path: sweep.PathAnalytic, Theorem: "eq-29"},
		{BW: rat.FromInt(2), Family: "triple", Path: sweep.PathCache, Canonical: []int{1, 2, 6, 0, 1, 2}},
		{BW: rat.New(7, 4), Family: "4-stream", Path: sweep.PathSimPacked,
			Canonical: []int{1, 3, 5, 7, 0, 2, 4, 6}, CycleLength: 12, Clocks: 40},
		{BW: rat.New(5, 3), Family: "section", Path: sweep.PathSimScalar, CycleLength: 3},
		{BW: rat.New(4, 2), Family: "pair", Path: sweep.PathAnalytic},
		{BW: rat.New(9, 7), Family: "stream4", Path: sweep.PathCache, Clocks: 77},
		{BW: rat.Rational{Num: -6, Den: 4}, Path: sweep.PathSimScalar, Clocks: 9, Canonical: []int{}},
		{BW: rat.Rational{}, Family: "<a&b>", Path: sweep.PathAnalytic, Theorem: `q"uote\back`},
		{BW: rat.One(), Family: "caf\u00e9 \u2028\u2029", Path: sweep.PathCache, Theorem: "line\nbreak\ttab\x01"},
		{BW: rat.New(1, 3), Family: "bad\xffutf8", Path: sweep.PathSimPacked, Theorem: "</script>",
			Canonical: []int{-1, 1 << 40}, CycleLength: -5, Clocks: 1 << 50},
	}
}

// encodeJSON is json.Encoder's encoding of v.
func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestEncodeMatchesEncodingJSON holds the append encoder to
// json.Encoder byte for byte on single results and on batches, whose
// paths maps hold one key or several.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	results := syntheticResults()
	batches := [][]sweep.Resolution{results}
	for i, res := range results {
		if got, want := string(encodeResult(res)), encodeJSON(t, resultJSON(res)); got != want {
			t.Errorf("result %d:\n got %s\nwant %s", i, got, want)
		}
		batches = append(batches, results[i:i+1], results[:i+1])
	}
	for i, batch := range batches {
		resp := BatchResponse{Results: make([]ResultJSON, len(batch)), Paths: make(map[string]int)}
		for k, res := range batch {
			resp.Results[k] = resultJSON(res)
			resp.Paths[res.Path.String()]++
		}
		if got, want := string(encodeBatch(batch, split(batch))), encodeJSON(t, resp); got != want {
			t.Errorf("batch %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestDominantPath pins the access log's attribution: the most common
// path, ties to the lexically first name, none for no results.
func TestDominantPath(t *testing.T) {
	for _, tc := range []struct {
		split pathSplit
		want  string
	}{
		{pathSplit{}, ""},
		{pathSplit{sweep.PathCache: 2, sweep.PathSimPacked: 3}, "sim-packed"},
		{pathSplit{sweep.PathSimScalar: 2, sweep.PathSimPacked: 2}, "sim-packed"},
		{pathSplit{sweep.PathAnalytic: 1, sweep.PathCache: 1}, "analytic"},
	} {
		if got := dominantPath(tc.split); got != tc.want {
			t.Errorf("%v: %q, want %q", tc.split, got, tc.want)
		}
	}
}

// batchColdResults are n resolutions shaped like a batch-cold
// response's: 4-stream families with their canonical vectors and
// simulation costs, over every answer path.
func batchColdResults(n int) []sweep.Resolution {
	results := make([]sweep.Resolution, n)
	for i := range results {
		results[i] = sweep.Resolution{BW: rat.New(int64(7+i%5), 4), Family: "stream4",
			Path: sweep.Path(i % 4), Canonical: []int{1, 3, 5, 7, 0, 2, 4, 6}, CycleLength: 12, Clocks: 40}
	}
	return results
}

// codecAllocs is what decoding and encoding one plain batch
// allocates, however many specs it holds: the specs, their shared
// streams backing array and the response buffer.
const codecAllocs = 3

// TestCodecAllocsFlat pins a plain batch's decode and encode at
// codecAllocs allocations, for 8 specs and for 512.
func TestCodecAllocsFlat(t *testing.T) {
	for _, n := range []int{8, 512} {
		body, results := batchColdBody(n), batchColdResults(n)
		allocs := testing.AllocsPerRun(20, func() {
			specs, err := decodeSpecs(body, true)
			if err != nil || len(specs) != n {
				panic(fmt.Sprintf("%d specs: %v", len(specs), err))
			}
			encodeBatch(results, split(results))
		})
		if allocs != codecAllocs {
			t.Errorf("%d specs: %v allocations, want %d", n, allocs, codecAllocs)
		}
	}
}

// BenchmarkCodec times a 512-spec batch-cold request's decode and its
// response's encode, each through the codec and through the
// reflective route it replaces.
func BenchmarkCodec(b *testing.B) {
	body, results := batchColdBody(512), batchColdResults(512)
	reflectiveEncode := func() {
		resp := BatchResponse{Results: make([]ResultJSON, len(results)), Paths: make(map[string]int)}
		for i, res := range results {
			resp.Results[i] = resultJSON(res)
			resp.Paths[res.Path.String()]++
		}
		json.NewEncoder(io.Discard).Encode(resp) //nolint:errcheck // io.Discard
	}
	for _, route := range []struct {
		name string
		run  func()
	}{
		{"decode/scanner", func() { decodeSpecs(body, true) }},         //nolint:errcheck // a valid body
		{"decode/reflective", func() { reflectiveDecode(body, true) }}, //nolint:errcheck // a valid body
		{"encode/append", func() { encodeBatch(results, split(results)) }},
		{"encode/reflective", reflectiveEncode},
	} {
		b.Run(route.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				route.run()
			}
		})
	}
}
