package serve

// Request-scoped observability plumbing: per-request identity
// (X-Request-ID honored or minted), the reqInfo carried through the
// request's context so handlers can attribute the answer (path,
// theorem, family) back to the access log, and the bounded rings
// retaining recently completed request traces (for the Chrome-trace
// export at /debug/requests.trace) and recent slow requests (for
// /statusz and the slow-query log).

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ivm/internal/obs"
)

// maxRequestIDLen bounds an incoming X-Request-ID; longer values are
// truncated so a hostile client cannot bloat logs and traces.
const maxRequestIDLen = 128

// requestIDOK reports whether one byte may appear in a request ID
// (printable ASCII except the characters that would break log or
// trace grep-ability).
func requestIDOK(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '_' || c == '.' || c == ':' || c == '/':
		return true
	}
	return false
}

// sanitizeRequestID clamps a client-supplied X-Request-ID: illegal
// bytes are dropped, overlong IDs truncated; an empty result means
// "mint one".
func sanitizeRequestID(raw string) string {
	if raw == "" {
		return ""
	}
	out := make([]byte, 0, min(len(raw), maxRequestIDLen))
	for i := 0; i < len(raw) && len(out) < maxRequestIDLen; i++ {
		if requestIDOK(raw[i]) {
			out = append(out, raw[i])
		}
	}
	return string(out)
}

// newIDBase draws the per-process request-ID prefix (8 hex chars of
// startup entropy, falling back to a clock stamp if the system
// entropy source fails).
func newIDBase() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
	}
	return hex.EncodeToString(b[:])
}

// requestID resolves one request's trace identifier: a sane incoming
// X-Request-ID wins, otherwise the server mints "<base>-<seq>".
func (s *Server) requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-ID")); id != "" {
		return id
	}
	return fmt.Sprintf("%s-%06d", s.idBase, s.reqSeq.Add(1))
}

// reqInfo is the per-request scratchpad handlers fill so the access
// log and slow log can attribute the answer: which path resolved it,
// under which theorem, for which family, and how many results the
// response carried. Each request owns one; no locking needed.
type reqInfo struct {
	tc      *obs.TraceContext
	path    string
	theorem string
	family  string
	results int
}

// reqInfoKey is the context key of the request's reqInfo.
type reqInfoKey struct{}

// requestInfo extracts the request's reqInfo; handlers reached outside
// instrument (direct tests) get a detached one whose nil TraceContext
// swallows spans.
func requestInfo(r *http.Request) *reqInfo {
	if info, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return info
	}
	return &reqInfo{}
}

// withRequestInfo attaches the reqInfo to a context.
func withRequestInfo(ctx context.Context, info *reqInfo) context.Context {
	return context.WithValue(ctx, reqInfoKey{}, info)
}

// traceRingCapacity bounds the completed request traces retained for
// /debug/requests.trace; slowRingCapacity the slow requests retained
// for /statusz.
const (
	traceRingCapacity = 256
	slowRingCapacity  = 32
)

// ring retains the last capacity values added, plus the all-time
// count.
type ring[T any] struct {
	mu       sync.Mutex
	capacity int
	buf      []T
	next     int
	total    int64
}

// newRing builds an empty ring retaining at most capacity values.
func newRing[T any](capacity int) *ring[T] { return &ring[T]{capacity: capacity} }

// add retains one value, evicting the oldest past capacity.
func (r *ring[T]) add(v T) {
	r.mu.Lock()
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % r.capacity
	}
	r.total++
	r.mu.Unlock()
}

// snapshot returns the retained values oldest-first plus the all-time
// count.
func (r *ring[T]) snapshot() ([]T, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out, r.total
}

// slowEntry is one retained slow request: identity, outcome, full
// provenance and the span breakdown, enough to triage without
// re-running the query.
type slowEntry struct {
	ID       string
	Endpoint string
	Status   int
	When     time.Time
	Dur      time.Duration
	Path     string
	Theorem  string
	Family   string
	Results  int
	Spans    []obs.Span
}
