package serve

// The /v1/bandwidth and /v1/batch codec. A request body is read once
// and parsed by a byte scanner straight into []sweep.ConfigSpec; a
// response is appended into one buffer and written once. Neither goes
// through reflection, which on a 512-spec batch cost more than the
// resolve it brackets.
//
// The scanner accepts only the plain subset of the wire schema: the
// known lowercase keys, each at most once per object; integers of at
// most 15 digits with no fraction or exponent; strings of printable
// ASCII with no escapes; true and false; policy names that parse; and
// nothing but whitespace after the value. Any other body (null, an
// unknown, case-folded or repeated key, a float, an escape, trailing
// data, a bad policy name, a malformed body) takes the encoding/json
// route through SpecJSON.Spec that served every request before the
// scanner, so the accepted set, the decoded specs and every 400 text
// are that route's by construction.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

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
// a /v1/batch body. A returned error is the 400 text.
func decodeSpecs(body []byte, batch bool) ([]sweep.ConfigSpec, error) {
	specs, plain := scanSpecs(body, batch)
	switch {
	case !plain && batch:
		return decodeBatchJSON(body)
	case !plain:
		return decodeSpecJSON(body)
	case batch:
		if err := batchLenErr(len(specs)); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// decodeSpecJSON is the fallback route of a /v1/bandwidth body.
func decodeSpecJSON(body []byte) ([]sweep.ConfigSpec, error) {
	var sj SpecJSON
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sj); err != nil {
		return nil, fmt.Errorf("bad spec: %v", err)
	}
	spec, err := sj.Spec()
	if err != nil {
		return nil, err
	}
	return []sweep.ConfigSpec{spec}, nil
}

// decodeBatchJSON is the fallback route of a /v1/batch body.
func decodeBatchJSON(body []byte) ([]sweep.ConfigSpec, error) {
	var req BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
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

// scanSpecs parses a plain body, reporting false on anything outside
// the plain subset. Every spec's Streams is a capped subslice of one
// backing array, sized with the specs slice by countObjects.
func scanSpecs(body []byte, batch bool) ([]sweep.ConfigSpec, bool) {
	nspecs, nstreams, ok := countObjects(body, batch)
	if !ok {
		return nil, false
	}
	s := specScanner{b: body, streams: make([]sweep.Stream, 0, nstreams)}
	specs := make([]sweep.ConfigSpec, 0, nspecs)
	one := func() bool {
		spec, ok := s.spec()
		specs = append(specs, spec)
		return ok
	}
	if batch {
		seen := false
		ok = s.object(func(key []byte) bool {
			if string(key) != "specs" || seen {
				return false
			}
			seen = true
			return s.array(one)
		})
	} else {
		ok = one()
	}
	if s.skip(); !ok || s.i != len(s.b) {
		return nil, false
	}
	return specs, true
}

// countObjects counts the spec and stream objects of a body by the
// depth they open at: a single spec at 0 and its streams at 2, a
// batch's specs at 2 ({"specs":[{) and their streams at 4. It reports
// false on an object at any other depth below the root. Strings are
// skipped to the next quote, which ends them in a body without
// escapes: the counts are exact for every body the scanner accepts.
func countObjects(body []byte, batch bool) (specs, streams int, ok bool) {
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
			case 0:
			default:
				return 0, 0, false
			}
			depth++
		case '[':
			depth++
		case '}', ']':
			depth--
		}
	}
	return specs, streams, true
}

// specScanner walks a body in the plain subset. streams is the shared
// backing array the specs' Streams are carved from.
type specScanner struct {
	b       []byte
	i       int
	streams []sweep.Stream
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

// object parses an object, handing each key to field, which parses
// the key's value.
func (s *specScanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array parses an array, calling elem to parse each element.
func (s *specScanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
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
			return false
		}
	}
}

// str parses a string of printable ASCII with no escapes, returning
// its bytes in the body.
func (s *specScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20 || c > 0x7e:
			return nil, false
		}
	}
	return nil, false
}

// num parses an integer of at most 15 digits (so it cannot overflow),
// in JSON's form: an optional minus and no leading zero. A fraction or
// exponent is left unread, for the caller's delimiter check to refuse.
func (s *specScanner) num() (int, bool) {
	s.skip()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, n := s.i, 0
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		n = 10*n + int(s.b[s.i]-'0')
	}
	if digits := s.i - start; digits == 0 || digits > 15 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// boolean parses true or false.
func (s *specScanner) boolean() (v, ok bool) {
	s.skip()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false, true
	}
	return false, false
}

// The policy values a plain body may name, matched by their String
// form, the vocabulary memsys.ParsePriority and memsys.ParseMapping
// parse. A name outside them takes the fallback, where those parsers
// decide.
var (
	priorities = []memsys.PriorityRule{memsys.FixedPriority, memsys.CyclicPriority, memsys.RoundRobinPerCPU}
	mappings   = []memsys.SectionMapping{memsys.CyclicSections, memsys.ConsecutiveSections}
)

// named finds the value among all whose String is name.
func named[T fmt.Stringer](name []byte, all []T) (T, bool) {
	for _, v := range all {
		if v.String() == string(name) {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// spec parses one spec object as SpecJSON.Spec would convert it: an
// empty policy string means the default, and consecutive=true means
// the consecutive mapping. A consecutive flag that contradicts the
// mapping is left to the fallback, whose error names both fields.
func (s *specScanner) spec() (sweep.ConfigSpec, bool) {
	var spec sweep.ConfigSpec
	var seen int
	var consecutive, mapped bool
	first := len(s.streams)
	ok := s.object(func(key []byte) bool {
		var bit int // one per key, for the repeat check
		var ok bool
		switch string(key) {
		case "m":
			bit = 1
			spec.M, ok = s.num()
		case "s":
			bit = 2
			spec.S, ok = s.num()
		case "nc":
			bit = 4
			spec.NC, ok = s.num()
		case "consecutive":
			bit = 8
			consecutive, ok = s.boolean()
		case "priority":
			bit = 16
			var name []byte
			if name, ok = s.str(); ok && len(name) > 0 {
				spec.Priority, ok = named(name, priorities)
			}
		case "mapping":
			bit = 32
			var name []byte
			if name, ok = s.str(); ok && len(name) > 0 {
				spec.Mapping, ok = named(name, mappings)
				mapped = true
			}
		case "streams":
			bit = 64
			ok = s.array(func() bool {
				st, ok := s.stream()
				s.streams = append(s.streams, st)
				return ok
			})
		}
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	if consecutive {
		if mapped && spec.Mapping != memsys.ConsecutiveSections {
			return spec, false
		}
		spec.Mapping = memsys.ConsecutiveSections
	}
	n := len(s.streams)
	spec.Streams = s.streams[first:n:n]
	return spec, ok
}

// stream parses one stream object.
func (s *specScanner) stream() (sweep.Stream, bool) {
	var st sweep.Stream
	var seen int
	ok := s.object(func(key []byte) bool {
		var field *int
		var bit int
		switch string(key) {
		case "d":
			field, bit = &st.D, 1
		case "b":
			field, bit = &st.B, 2
		case "cpu":
			field, bit = &st.CPU, 4
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		var ok bool
		*field, ok = s.num()
		return ok
	})
	return st, ok
}

// resultLenBound bounds appendResult's output for res: every integer
// at full width and every string escaped at six bytes a byte.
func resultLenBound(res sweep.Resolution) int {
	return 256 + 6*(len(res.Family)+len(res.Theorem)) + 21*len(res.Canonical)
}

// appendResult appends resultJSON(res) as encoding/json writes it:
// the fields in struct order, the omitempty ones left out when zero.
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
// encoding of resultJSON(res), trailing newline included.
func encodeResult(res sweep.Resolution) []byte {
	return append(appendResult(make([]byte, 0, resultLenBound(res)), res), '\n')
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

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and the HTML-significant <, > and & is
// copied as it is; any other string is encoded by json.Marshal, whose
// escaping matches json.Encoder's default.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) //nolint:errcheck // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
