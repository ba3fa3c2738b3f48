package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ivm/internal/rat"
	"ivm/internal/sweep"
)

// reflectiveDecode is the test oracle, the route every body took
// before the scanner: encoding/json into the wire types, then
// SpecJSON.Spec per spec, with the batch checks in their order.
func reflectiveDecode(body []byte, batch bool) ([]sweep.ConfigSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if !batch {
		var sj SpecJSON
		if err := dec.Decode(&sj); err != nil {
			return nil, fmt.Errorf("bad spec: %v", err)
		}
		spec, err := sj.Spec()
		if err != nil {
			return nil, err
		}
		return []sweep.ConfigSpec{spec}, nil
	}
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad batch: %v", err)
	}
	if err := batchLenErr(len(req.Specs)); err != nil {
		return nil, err
	}
	specs := make([]sweep.ConfigSpec, len(req.Specs))
	for i, sj := range req.Specs {
		spec, err := sj.Spec()
		if err != nil {
			return nil, fmt.Errorf("spec %d: %v", i, err)
		}
		specs[i] = spec
	}
	return specs, nil
}

// outOfGrammar walks body's tokens as encoding/json reads them and
// names the first feature of it outside the scanner's grammar: null,
// a string with an escape or a byte outside printable ASCII, a number
// with a fraction, an exponent, a leading zero or more than 15 digits,
// a key unknown where it stands (a case-folded one included) or
// repeated in its object, or data after the value. It returns "" when
// the body has none.
func outOfGrammar(body []byte, batch bool) string {
	type level struct {
		obj  bool
		keys []string        // an object's known keys, or the keys of an array's objects
		seen map[string]bool // an object's keys so far
		key  string          // the key whose value comes next; "" when a key does
	}
	specKeys, streamKeys := jsonKeys(SpecJSON{}), jsonKeys(StreamJSON{})
	root := specKeys
	if batch {
		root = jsonKeys(BatchRequest{})
	}
	elemKeys := map[string][]string{"specs": specKeys, "streams": streamKeys}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var stack []*level
	for started := false; ; started = true {
		off := dec.InputOffset()
		tok, err := dec.Token()
		switch {
		case started && len(stack) == 0 && err == io.EOF:
			return ""
		case started && len(stack) == 0:
			return "data after the value"
		case err != nil:
			return ""
		}
		// raw is the token and the whitespace and separator before it.
		raw := body[off:dec.InputOffset()]
		var in *level
		if len(stack) > 0 {
			in = stack[len(stack)-1]
		}
		switch v := tok.(type) {
		case nil:
			return "null"
		case string:
			raw = raw[bytes.IndexByte(raw, '"')+1 : bytes.LastIndexByte(raw, '"')]
			if bytes.IndexByte(raw, '\\') >= 0 {
				return "an escape"
			}
			if bytes.ContainsFunc(raw, func(r rune) bool { return r < 0x20 || r > 0x7e }) {
				return "a byte outside printable ASCII"
			}
			if in != nil && in.obj && in.key == "" {
				switch {
				case !slices.Contains(in.keys, v):
					return "an unknown key"
				case in.seen[v]:
					return "a repeated key"
				}
				in.seen[v], in.key = true, v
				continue
			}
		case json.Number:
			digits := strings.TrimPrefix(string(v), "-")
			switch {
			case strings.Contains(digits, "."):
				return "a fraction"
			case strings.ContainsAny(digits, "eE"):
				return "an exponent"
			case len(digits) > 1 && digits[0] == '0':
				return "a leading zero"
			case len(digits) > 15:
				return "more than 15 digits"
			}
		case json.Delim:
			switch v {
			case '{':
				l := &level{obj: true, seen: map[string]bool{}}
				switch {
				case in == nil:
					l.keys = root
				case !in.obj:
					l.keys = in.keys
				}
				stack = append(stack, l)
				continue
			case '[':
				l := &level{}
				if in != nil && in.obj {
					l.keys = elemKeys[in.key]
				}
				stack = append(stack, l)
				continue
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			stack[len(stack)-1].key = ""
		}
	}
}

// jsonKeys lists the keys of v's struct type in its JSON tags, the
// wire schema as encoding/json reads it.
func jsonKeys(v any) []string {
	t := reflect.TypeOf(v)
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return keys
}

// checkDecode holds decodeSpecs to the oracle on one body in one
// shape: where the scanner accepts, the oracle accepts with DeepEqual
// specs; where the oracle refuses, the scanner refuses; and where only
// the scanner refuses, the body is outside its grammar.
func checkDecode(t *testing.T, body []byte, batch bool) {
	t.Helper()
	got, gotErr := decodeSpecs(body, batch)
	want, wantErr := reflectiveDecode(body, batch)
	switch {
	case gotErr == nil && wantErr != nil:
		t.Fatalf("batch=%v %q: decoded, oracle error %v", batch, body, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("batch=%v %q: specs\n%+v\noracle\n%+v", batch, body, got, want)
	case gotErr != nil && wantErr == nil && outOfGrammar(body, batch) == "":
		t.Fatalf("batch=%v %q: refused (%v), but the oracle accepts it and it is in the grammar", batch, body, gotErr)
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

// plainSpecs and plainBatches are bodies the scanner decodes in the
// single and the batch shape.
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
		`{"streams":[{"cpu":1,"b":2,"d":3}],"mapping":"consecutive","priority":"rr-cpu","nc":4,"s":4,"m":16}`,
		`{"nc":4}`,
		`{}`,
	}
	plainBatches = []string{
		`{"specs":[` + pinnedPairSpec + `]}`,
		`{"specs":[{"m":16,"nc":4,"priority":"cyclic","streams":[]},{"m":16,"s":4,"mapping":"consecutive"}]}`,
		`{"specs":[{}]}`,
		`{"specs":[{},{"streams":[{}]}]}`,
		` { "specs" : [ { } ] } `,
		string(batchColdBody(3)),
	}
)

// refusedBodies are bodies decodeSpecs refuses in the given shape,
// with the 400 text. A body outside the grammar is refused with the
// byte offset where the scan stopped and, when the scan stopped inside
// a value, the field holding it; a policy name that does not parse and
// a batch of the wrong length are refused with the oracle's text.
var refusedBodies = []struct {
	body  string
	batch bool
	err   string
}{
	// Unknown, case-folded and repeated keys.
	{`{"M":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 1: field "M": unknown field`},
	{`{"m":16,"NC":4,"streams":[{"D":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 8: field "NC": unknown field`},
	{`{"Specs":[` + pinnedPairSpec + `]}`, true,
		`bad batch: byte 1: field "Specs": unknown field`},
	{`{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}],"streams":[{"d":2,"b":1,"cpu":1}]}`, false,
		`bad spec: byte 49: field "streams": repeated field`},
	{`{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0,"d":3}]}`, false,
		`bad spec: byte 47: field "d": repeated field`},
	{`{"specs":[` + pinnedPairSpec + `],"specs":[` + pinnedPairSpec + `]}`, true,
		`bad batch: byte 83: field "specs": repeated field`},
	{`{"m":16,"nc":4,"extra":1,"streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 15: field "extra": unknown field`},
	{`{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0,"w":2}]}`, false,
		`bad spec: byte 47: field "w": unknown field`},
	{`{"family":"caf\u00e9","m":16,"streams":[]}`, false,
		`bad spec: byte 1: field "family": unknown field`},
	{`{"":1}`, false,
		`bad spec: byte 1: field "": unknown field`},
	// The retired consecutive flag is an unknown key.
	{`{"m":16,"s":4,"nc":4,"consecutive":true,"streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 21: field "consecutive": unknown field`},
	{`{"m":16,"s":4,"nc":4,"consecutive":false,"mapping":"cyclic","streams":[]}`, false,
		`bad spec: byte 21: field "consecutive": unknown field`},
	{`{"m":16,"s":4,"nc":4,"consecutive":true,"mapping":"consecutive","streams":[]}`, false,
		`bad spec: byte 21: field "consecutive": unknown field`},
	{`{"m":16,"s":4,"nc":4,"consecutive":true,"mapping":"","streams":[]}`, false,
		`bad spec: byte 21: field "consecutive": unknown field`},
	{`{"m":16,"s":4,"nc":4,"consecutive":true,"mapping":"cyclic","streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 21: field "consecutive": unknown field`},
	{`{"specs":[{"m":16,"nc":4,"priority":"cyclic","streams":[]},{"m":16,"s":4,"consecutive":true}]}`, true,
		`bad batch: byte 73: field "consecutive": unknown field`},
	{`{"specs":[{"m":16,"nc":4,"streams":[]},{"m":16,"nc":4,"consecutive":true,"mapping":"cyclic","streams":[]}]}`, true,
		`bad batch: byte 54: field "consecutive": unknown field`},
	{`{"m":16,"nc":4,"consecutive":1,"streams":[]}`, false,
		`bad spec: byte 15: field "consecutive": unknown field`},
	{`{"consecutive":tru}`, false,
		`bad spec: byte 1: field "consecutive": unknown field`},
	// null.
	{`null`, false,
		`bad spec: byte 0: want '{'`},
	{`{"specs":null}`, true,
		`bad batch: byte 9: field "specs": want '['`},
	{`{"specs":[null]}`, true,
		`bad batch: byte 10: field "specs": want '{'`},
	{`{"m":null,"nc":4,"streams":null}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"m":16,"nc":4,"streams":[null,{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 26: field "streams": want '{'`},
	// Escapes and bytes outside printable ASCII.
	{`{"m":16,"nc":4,"priority":"\u0063yclic","streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 27: field "priority": want printable ASCII with no escapes`},
	{`{"\u006d":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 2: want printable ASCII with no escapes`},
	{"{\"m\":16,\"priority\":\"caf\xc3\xa9\",\"streams\":[]}", false,
		`bad spec: byte 23: field "priority": want printable ASCII with no escapes`},
	{"{\"m\":16,\"priority\":\"tab\there\",\"streams\":[]}", false,
		`bad spec: byte 23: field "priority": want printable ASCII with no escapes`},
	{`{"m":16,"mapping":"cyclic`, false,
		`bad spec: byte 25: field "mapping": unterminated string`},
	// Numbers outside the grammar, and values of the wrong type.
	{`{"m":16.0,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"m":1e2,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"m":1234567890123456,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"m":016,"nc":4,"streams":[]}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"m":-,"nc":4}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"m":"16","nc":4,"streams":[]}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"m":truex}`, false,
		`bad spec: byte 5: field "m": want an integer of at most 15 digits, with no leading zero, fraction or exponent`},
	{`{"specs":[[{"m":16}]]}`, true,
		`bad batch: byte 10: field "specs": want '{'`},
	// Data after the value.
	{pinnedPairSpec + ` trailing`, false,
		`bad spec: byte 72: data after the value`},
	{pinnedPairSpec + `{}`, false,
		`bad spec: byte 71: data after the value`},
	{`{"specs":[` + pinnedPairSpec + `]} ]`, true,
		`bad batch: byte 84: data after the value`},
	// Malformed bodies.
	{`[]`, false,
		`bad spec: byte 0: want '{'`},
	{`{`, false,
		`bad spec: byte 1: want a string`},
	{``, false,
		`bad spec: byte 0: want '{'`},
	{`   `, true,
		`bad batch: byte 3: want '{'`},
	{`{"m":16,`, false,
		`bad spec: byte 8: want a string`},
	{`{"m":16 "nc":4}`, false,
		`bad spec: byte 8: want ',' or '}'`},
	{`{"m":16,,"nc":4}`, false,
		`bad spec: byte 8: want a string`},
	{`{"m":16,}`, false,
		`bad spec: byte 8: want a string`},
	{`{"m"16}`, false,
		`bad spec: byte 4: want ':'`},
	{`{"specs":[{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},]}]}`, true,
		`bad batch: byte 58: field "streams": want '{'`},
	{`{"specs":[{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0}}]}`, true,
		`bad batch: byte 57: field "streams": want ',' or ']'`},
	// In the grammar, refused for a value.
	{`{"m":16,"nc":4,"priority":"lru","streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`field "priority": unknown priority rule "lru" (want fixed, cyclic or rr-cpu)`},
	{`{"m":16,"s":4,"nc":4,"mapping":"Cyclic","streams":[{"d":1,"b":0,"cpu":0}]}`, false,
		`field "mapping": unknown section mapping "Cyclic" (want cyclic or consecutive)`},
	{`{"specs":[{},{"priority":"lifo"}]}`, true,
		`spec 1: field "priority": unknown priority rule "lifo" (want fixed, cyclic or rr-cpu)`},
	{`{"specs":[{},{},{"mapping":"skewed"}]}`, true,
		`spec 2: field "mapping": unknown section mapping "skewed" (want cyclic or consecutive)`},
	{`{"specs":[]}`, true,
		`empty batch`},
	{`{}`, true,
		`empty batch`},
}

// FuzzDecodeSpecs holds the scanner to the oracle (checkDecode) on any
// body, in both request shapes.
func FuzzDecodeSpecs(f *testing.F) {
	for _, body := range slices.Concat(plainSpecs, plainBatches) {
		f.Add([]byte(body))
	}
	for _, tc := range refusedBodies {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, false)
		checkDecode(t, body, true)
	})
}

// TestDecodeSpecsSeeds pins that the plain seeds decode in their shape
// as the oracle decodes them, and that a 512-spec batch-cold body
// does, its streams carved from one backing array.
func TestDecodeSpecsSeeds(t *testing.T) {
	for _, batch := range []bool{false, true} {
		bodies := plainSpecs
		if batch {
			bodies = plainBatches
		}
		for _, body := range bodies {
			got, err := decodeSpecs([]byte(body), batch)
			want, wantErr := reflectiveDecode([]byte(body), batch)
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("batch=%v %q: %+v, %v; oracle %+v, %v", batch, body, got, err, want, wantErr)
			}
		}
	}
	specs, err := decodeSpecs(batchColdBody(512), true)
	if err != nil || len(specs) != 512 {
		t.Fatalf("batch-cold body: %d specs, %v", len(specs), err)
	}
	backing := unsafe.Slice(unsafe.SliceData(specs[0].Streams), 4*len(specs))
	for i, spec := range specs {
		if len(spec.Streams) != 4 || cap(spec.Streams) != 4 || &spec.Streams[0] != &backing[4*i] {
			t.Fatalf("spec %d: streams not a capped subslice of the shared backing", i)
		}
	}
}

// byteOffset matches the head of a 400 for a body outside the grammar.
var byteOffset = regexp.MustCompile(`^bad (spec|batch): byte [0-9]+: `)

// TestDecodeSpecsRefused pins each refused body's 400 text in its
// shape: a body outside the grammar names its byte offset, a value
// refusal is the oracle's text. In the other shape, too, the 400 of a
// body outside the grammar names its byte offset.
func TestDecodeSpecsRefused(t *testing.T) {
	for _, tc := range refusedBodies {
		specs, err := decodeSpecs([]byte(tc.body), tc.batch)
		if err == nil || err.Error() != tc.err {
			t.Errorf("batch=%v %q: %d specs, error %v; want %s", tc.batch, tc.body, len(specs), err, tc.err)
			continue
		}
		if !byteOffset.MatchString(tc.err) {
			if _, want := reflectiveDecode([]byte(tc.body), tc.batch); want == nil || want.Error() != tc.err {
				t.Errorf("batch=%v %q: error %q, oracle %v", tc.batch, tc.body, tc.err, want)
			}
			continue
		}
		if _, err := decodeSpecs([]byte(tc.body), !tc.batch); err == nil || !byteOffset.MatchString(err.Error()) {
			t.Errorf("batch=%v %q: error %v names no byte offset", !tc.batch, tc.body, err)
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

// resultJSON converts an engine resolution to its wire form, the
// reflective oracle of the append encoder.
func resultJSON(res sweep.Resolution) ResultJSON {
	return ResultJSON{
		Family:      res.Family,
		BEff:        res.BW.String(),
		Num:         res.BW.Num,
		Den:         res.BW.Den,
		Path:        res.Path.String(),
		Theorem:     res.Theorem,
		Canonical:   res.Canonical,
		CycleLength: res.CycleLength,
		Clocks:      res.Clocks,
	}
}

// SweepRowJSON is one NDJSON row of /v1/sweep in reflective form: the
// swept stream 2 start and its result.
type SweepRowJSON struct {
	B2 int `json:"b2"`
	ResultJSON
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
// json.Encoder byte for byte on single results, on /v1/sweep rows and
// on batches, whose paths maps hold one key or several.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	results := syntheticResults()
	batches := [][]sweep.Resolution{results}
	for i, res := range results {
		if got, want := string(encodeResult(res)), encodeJSON(t, resultJSON(res)); got != want {
			t.Errorf("result %d:\n got %s\nwant %s", i, got, want)
		}
		b2 := i * i * 997
		row := SweepRowJSON{B2: b2, ResultJSON: resultJSON(res)}
		if got, want := string(appendSweepRow([]byte("kept"), b2, res)), "kept"+encodeJSON(t, row); got != want {
			t.Errorf("sweep row %d:\n got %s\nwant %s", i, got, want)
		}
		if n, bound := len(appendResult(nil, res)), resultLenBound(res); n > bound {
			t.Errorf("result %d: %d bytes, over its bound of %d", i, n, bound)
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
// codecAllocs allocations, for 8 specs and for 512, and a body naming
// every policy at the same decode allocations as one naming none.
func TestCodecAllocsFlat(t *testing.T) {
	named := []byte(`{"specs":[{"m":16,"nc":4,"priority":"fixed","streams":[{"d":1,"b":0,"cpu":0}]},` +
		`{"m":16,"nc":4,"priority":"cyclic","streams":[{"d":1,"b":0,"cpu":0}]},` +
		`{"m":16,"s":4,"nc":4,"priority":"rr-cpu","mapping":"cyclic","streams":[{"d":1,"b":0,"cpu":0}]},` +
		`{"m":16,"s":4,"nc":4,"mapping":"consecutive","streams":[{"d":1,"b":0,"cpu":0}]}]}`)
	if allocs := testing.AllocsPerRun(20, func() { decodeSpecs(named, true) }); allocs != codecAllocs-1 { //nolint:errcheck // a valid body
		t.Errorf("policy names: %v decode allocations, want %d", allocs, codecAllocs-1)
	}
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
