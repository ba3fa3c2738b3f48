package serve

// The /v1/bandwidth and /v1/batch codec. A request body is read once
// and parsed by a byte scanner straight into []sweep.ConfigSpec; a
// response is appended into one buffer and written once. Neither goes
// through reflection, which on a 512-spec batch cost more than the
// resolve it brackets.
//
// The scanner is the only decoder of those bodies. Its grammar is a
// subset of JSON (docs/SERVING.md): objects with the known lowercase
// keys, each at most once; integers of at most 15 digits with no
// leading zero, fraction or exponent; strings of printable ASCII with
// no escapes; whitespace between tokens and nothing but whitespace
// after the value. A body outside it is a 400 naming the byte offset
// where the scan stopped and the field it stopped in; a policy name
// that does not parse is a 400 naming the field (policy).

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"unsafe"

	"ivm/internal/memsys"
	"ivm/internal/sweep"
)

// maxBodyHint caps the Content-Length a body's buffer is sized by up
// front; a larger body grows the buffer as it arrives.
const maxBodyHint = 1 << 20

// readBody reads the request's whole body and closes it, sparing
// net/http the discard copy it otherwise makes of an unclosed body
// before writing the response header.
func readBody(r *http.Request) ([]byte, error) {
	size := int64(bytes.MinRead)
	if n := r.ContentLength; n > 0 && n <= maxBodyHint {
		size += n
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(r.Body)
	r.Body.Close() //nolint:errcheck // the read error is the one to report
	return buf.Bytes(), err
}

// decodeSpecs decodes a /v1/bandwidth body (one spec) or, with batch,
// a /v1/batch body. A returned error is the 400 text. Every spec's
// Streams is a capped subslice of one backing array, sized with the
// specs slice by countObjects.
func decodeSpecs(body []byte, batch bool) ([]sweep.ConfigSpec, error) {
	nspecs, nstreams := countObjects(body, batch)
	s := specScanner{b: body, streams: make([]sweep.Stream, 0, nstreams)}
	specs := make([]sweep.ConfigSpec, 0, nspecs)
	one := func() bool {
		spec, ok := s.spec()
		specs = append(specs, spec)
		return ok
	}
	var ok bool
	if batch {
		ok = s.object(batchKeys, func(string) bool { return s.array(one) })
	} else {
		ok = one()
	}
	if s.skip(); ok && s.i < len(s.b) {
		ok = s.fail(s.i, "data after the value")
	}
	switch {
	case !ok:
		return nil, s.error(batch, len(specs)-1)
	case batch:
		if err := batchLenErr(len(specs)); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// batchLenErr refuses an empty batch and one over MaxBatch.
func batchLenErr(n int) error {
	if n == 0 {
		return errors.New("empty batch")
	}
	if n > MaxBatch {
		return fmt.Errorf("batch of %d specs exceeds the cap of %d", n, MaxBatch)
	}
	return nil
}

// countObjects counts the spec and stream objects of a body by the
// depth they open at: a batch's specs at 2 ({"specs":[{) and their
// streams at 4, a single spec's streams at 2. Strings are skipped to
// the next quote, which ends them in a body without escapes: the
// counts are exact for every body the scanner accepts, and only size
// its slices.
func countObjects(body []byte, batch bool) (specs, streams int) {
	specDepth := 0
	if batch {
		specDepth = 2
	}
	depth := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			for i++; i < len(body) && body[i] != '"'; i++ {
			}
		case '{':
			switch depth {
			case specDepth:
				specs++
			case specDepth + 2:
				streams++
			}
			depth++
		case '[':
			depth++
		case '}', ']':
			depth--
		}
	}
	if !batch {
		return 1, streams
	}
	return specs, streams
}

// specScanner walks a body in the grammar. streams is the shared
// backing array the specs' Streams are carved from. The scan stops at
// its first failure, which it records only then: the byte offset at,
// what was wanted there, and field, the key of the innermost value
// holding it; or err, the 400 text of a policy name that does not
// parse.
type specScanner struct {
	b       []byte
	i       int
	streams []sweep.Stream

	at    int
	what  string
	field []byte
	err   error
}

// fail records the scan's failure at byte at and reports false.
func (s *specScanner) fail(at int, what string) bool {
	s.at, s.what = at, what
	return false
}

// in attributes the failure to key's value unless an inner value
// already holds it, and reports false.
func (s *specScanner) in(key []byte) bool {
	if s.field == nil {
		s.field = key
	}
	return false
}

// error renders the failure as its 400 text; spec is the index of the
// batch spec a policy name failed in.
func (s *specScanner) error(batch bool, spec int) error {
	shape := "spec"
	switch {
	case s.err != nil && batch:
		return fmt.Errorf("spec %d: %v", spec, s.err)
	case s.err != nil:
		return s.err
	case batch:
		shape = "batch"
	}
	if s.field == nil {
		return fmt.Errorf("bad %s: byte %d: %s", shape, s.at, s.what)
	}
	return fmt.Errorf("bad %s: byte %d: field %q: %s", shape, s.at, s.field, s.what)
}

// skip advances past JSON whitespace.
func (s *specScanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c after any whitespace, reporting whether it was there.
func (s *specScanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// The keys of the request objects, at most 64 each: a key's index is
// its bit in object's repeat check.
var (
	batchKeys  = []string{"specs"}
	specKeys   = []string{"m", "s", "nc", "priority", "mapping", "streams"}
	streamKeys = []string{"d", "b", "cpu"}
)

// object parses an object whose keys are among keys, each at most
// once, handing each key to value, which parses the key's value.
func (s *specScanner) object(keys []string, value func(key string) bool) bool {
	if !s.eat('{') {
		return s.fail(s.i, "want '{'")
	}
	if s.eat('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := s.str()
		if !ok {
			return false
		}
		k := 0
		for k < len(keys) && !isKey(key, keys[k]) {
			k++
		}
		switch at := s.i - len(key) - 2; {
		case k == len(keys):
			s.fail(at, "unknown field")
			return s.in(key)
		case seen&(1<<uint(k)) != 0:
			s.fail(at, "repeated field")
			return s.in(key)
		}
		seen |= 1 << uint(k)
		if !s.eat(':') {
			return s.fail(s.i, "want ':'")
		}
		if !value(keys[k]) {
			return s.in(key)
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return s.fail(s.i, "want ',' or '}'")
		}
	}
}

// isKey reports whether key spells name, compared in line: keys are
// too short to pay for a call.
func isKey(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := range key {
		if key[i] != name[i] {
			return false
		}
	}
	return true
}

// array parses an array, calling elem to parse each element.
func (s *specScanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return s.fail(s.i, "want '['")
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return s.fail(s.i, "want ',' or ']'")
		}
	}
}

// str parses a string of printable ASCII with no escapes, returning
// its bytes in the body.
func (s *specScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, s.fail(s.i, "want a string")
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20 || c > 0x7e:
			return nil, s.fail(s.i, "want printable ASCII with no escapes")
		}
	}
	return nil, s.fail(s.i, "unterminated string")
}

// num parses an integer of at most 15 digits (so it cannot overflow),
// in JSON's form: an optional minus and no leading zero, fraction or
// exponent.
func (s *specScanner) num() (int, bool) {
	s.skip()
	at := s.i
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, n := s.i, 0
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		n = 10*n + int(s.b[s.i]-'0')
	}
	digits := s.i - start
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		digits = 0 // a fraction or exponent
	}
	if digits == 0 || digits > 15 || (digits > 1 && s.b[start] == '0') {
		return 0, s.fail(at, "want an integer of at most 15 digits, with no leading zero, fraction or exponent")
	}
	if neg {
		n = -n
	}
	return n, true
}

// spec parses one spec object as SpecJSON.Spec converts it: an empty
// policy name means the default.
func (s *specScanner) spec() (sweep.ConfigSpec, bool) {
	var spec sweep.ConfigSpec
	first := len(s.streams)
	ok := s.object(specKeys, func(key string) bool {
		var ok bool
		switch key {
		case "m":
			spec.M, ok = s.num()
		case "s":
			spec.S, ok = s.num()
		case "nc":
			spec.NC, ok = s.num()
		case "priority":
			spec.Priority, ok = policyValue(s, key, memsys.ParsePriority)
		case "mapping":
			spec.Mapping, ok = policyValue(s, key, memsys.ParseMapping)
		case "streams":
			ok = s.array(func() bool {
				st, ok := s.stream()
				s.streams = append(s.streams, st)
				return ok
			})
		}
		return ok
	})
	n := len(s.streams)
	spec.Streams = s.streams[first:n:n]
	return spec, ok
}

// policyValue parses the policy name of field key with parse. The name
// is read in place, not copied, so a known one decodes without
// allocating; nothing writes a body once it is read.
func policyValue[T any](s *specScanner, key string, parse func(string) (T, error)) (T, bool) {
	name, ok := s.str()
	if !ok {
		var zero T
		return zero, false
	}
	v, err := policy("field", key, unsafe.String(unsafe.SliceData(name), len(name)), parse)
	if err != nil {
		s.err = err
		return v, false
	}
	return v, true
}

// stream parses one stream object.
func (s *specScanner) stream() (sweep.Stream, bool) {
	var st sweep.Stream
	ok := s.object(streamKeys, func(key string) bool {
		v := &st.D
		switch key {
		case "b":
			v = &st.B
		case "cpu":
			v = &st.CPU
		}
		var ok bool
		*v, ok = s.num()
		return ok
	})
	return st, ok
}

// resultLenBound bounds appendResult's output for res: 128 bytes of
// keys, punctuation and path name, each string at strLenBound and each
// integer at intLenBound (the fraction's parts twice, in b_eff and in
// num and den).
func resultLenBound(res sweep.Resolution) int {
	n := 128 + strLenBound(res.Family) + strLenBound(res.Theorem) +
		2*(intLenBound(res.BW.Num)+intLenBound(res.BW.Den)) +
		intLenBound(res.CycleLength) + intLenBound(res.Clocks)
	for _, v := range res.Canonical {
		n += 1 + intLenBound(int64(v))
	}
	return n
}

// strLenBound bounds appendString's output for s: s and its quotes,
// or six bytes a byte if s needs escaping.
func strLenBound(s string) int {
	if needsEscape(s) {
		return 2 + 6*len(s)
	}
	return 2 + len(s)
}

// intLenBound bounds v's decimal length, sign included: a number of l
// bits has at most l/3 + 1 digits, since 2³ < 10.
func intLenBound(v int64) int {
	return 2 + bits.Len64(uint64(v))/3
}

// appendResult appends res in its wire form, ResultJSON, as
// encoding/json writes it: the fields in struct order, the omitempty
// ones left out when zero.
func appendResult(dst []byte, res sweep.Resolution) []byte {
	dst = appendString(append(dst, `{"family":`...), res.Family)
	dst = res.BW.Append(append(dst, `,"b_eff":"`...))
	dst = strconv.AppendInt(append(dst, `","num":`...), res.BW.Num, 10)
	dst = strconv.AppendInt(append(dst, `,"den":`...), res.BW.Den, 10)
	dst = appendString(append(dst, `,"path":`...), res.Path.String())
	if res.Theorem != "" {
		dst = appendString(append(dst, `,"theorem":`...), res.Theorem)
	}
	if len(res.Canonical) > 0 {
		dst = append(dst, `,"canonical":[`...)
		for i, v := range res.Canonical {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	if res.CycleLength != 0 {
		dst = strconv.AppendInt(append(dst, `,"cycle_length":`...), res.CycleLength, 10)
	}
	if res.Clocks != 0 {
		dst = strconv.AppendInt(append(dst, `,"clocks":`...), res.Clocks, 10)
	}
	return append(dst, '}')
}

// encodeResult renders a /v1/bandwidth response: json.Encoder's
// encoding of res's ResultJSON, trailing newline included.
func encodeResult(res sweep.Resolution) []byte {
	return append(appendResult(make([]byte, 0, resultLenBound(res)), res), '\n')
}

// appendSweepRow appends one /v1/sweep NDJSON row: an object holding
// stream 2's start b2 and then the fields of res's ResultJSON, as
// json.Encoder writes a struct embedding ResultJSON behind a "b2"
// field, trailing newline included.
func appendSweepRow(dst []byte, b2 int, res sweep.Resolution) []byte {
	dst = strconv.AppendInt(append(dst, `{"b2":`...), int64(b2), 10)
	n := len(dst)
	dst = appendResult(dst, res)
	dst[n] = ',' // the result's opening brace
	return append(dst, '\n')
}

// pathSplit counts a response's results by answer path.
type pathSplit [sweep.PathSimPacked + 1]int

// split tallies results by answer path.
func split(results []sweep.Resolution) pathSplit {
	var n pathSplit
	for _, res := range results {
		n[res.Path]++
	}
	return n
}

// pathsByName lists the answer paths in the order encoding/json sorts
// their names as map keys.
var pathsByName = func() []sweep.Path {
	var ps []sweep.Path
	for p := range len(pathSplit{}) {
		ps = append(ps, sweep.Path(p))
	}
	slices.SortFunc(ps, func(a, b sweep.Path) int { return cmp.Compare(a.String(), b.String()) })
	return ps
}()

// dominantPath picks the most common answer path of a response for
// the access log's one-line attribution (ties break lexically for
// determinism).
func dominantPath(n pathSplit) string {
	best, bestN := "", 0
	for _, p := range pathsByName {
		if n[p] > bestN {
			best, bestN = p.String(), n[p]
		}
	}
	return best
}

// encodeBatch renders a /v1/batch response: json.Encoder's encoding of
// the BatchResponse — results in input order and the paths map with
// its keys sorted — trailing newline included.
func encodeBatch(results []sweep.Resolution, paths pathSplit) []byte {
	size := 256
	for _, res := range results {
		size += 1 + resultLenBound(res)
	}
	dst := append(make([]byte, 0, size), `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResult(dst, res)
	}
	dst = append(dst, `],"paths":{`...)
	first := true
	for _, p := range pathsByName {
		if paths[p] == 0 {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = appendString(dst, p.String())
		dst = strconv.AppendInt(append(dst, ':'), int64(paths[p]), 10)
	}
	return append(dst, "}}\n"...)
}

// needsEscape reports whether s holds a byte appendString does not
// copy as it is: one outside printable ASCII, the quote, the backslash
// or the HTML-significant <, > and &.
func needsEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return true
		}
	}
	return false
}

// appendString appends s as a JSON string: copied as it is, or, if it
// needs escaping, encoded by json.Marshal, whose escaping matches
// json.Encoder's default.
func appendString(dst []byte, s string) []byte {
	if needsEscape(s) {
		b, _ := json.Marshal(s) //nolint:errcheck // a string always marshals
		return append(dst, b...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
