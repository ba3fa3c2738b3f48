package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/serve"
	"ivm/internal/sweep"
)

// Clients is the closed-loop client count: two, or one on a one-CPU
// machine. Each client holds one keep-alive connection.
func Clients() int { return min(2, runtime.NumCPU()) }

// server is an in-process ivmserved: a store in a directory, the
// serve.Server over it, and (once listening) a loopback HTTP server and
// the client that talks to it.
type server struct {
	dir   string
	store *cachestore.Store
	srv   *serve.Server
	h     http.Handler

	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// openServer opens the store in dir and builds the server over it —
// the work a restarted ivmserved does before it can answer.
func openServer(dir string) (*server, error) {
	st, err := cachestore.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Store: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &server{dir: dir, store: st, srv: srv, h: srv.Handler()}, nil
}

// freshServer opens a server on a new, empty store under parent.
func freshServer(parent string) (*server, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, err
	}
	return openServer(dir)
}

// discardFresh closes a fresh server and removes its store.
func discardFresh(s *server) error {
	if err := s.close(); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

// listen serves the handler on a loopback port.
func (s *server) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	n := Clients()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true,
	}}
	return nil
}

// close stops the HTTP server (waiting for it to exit) and closes the
// store.
func (s *server) close() error {
	if s.hs != nil {
		s.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		s.hs = nil
	}
	return s.store.Close()
}

// entry is one way into the serving stack. The traced run rotates
// requests over all three, and each layer's self time is a difference
// of means between them.
type entry int

const (
	// viaHTTP posts over a loopback keep-alive connection.
	viaHTTP entry = iota
	// viaHandler calls Handler().ServeHTTP on a response recorder.
	viaHandler
	// viaEngine decodes, resolves on the engine and encodes in the
	// benchmark's own code, with a span sink on the resolve call.
	viaEngine
	numEntries
)

// Root span names, one per entry point, and the child spans of the
// engine entry.
const (
	spanHTTP    = "http"
	spanHandler = "handler"
	spanDirect  = "direct"
	spanDecode  = "decode"
	spanResolve = "resolve"
	spanEncode  = "encode"
	// sumCovered is the derived total of the child-covered part of
	// each resolve call.
	sumCovered = "resolve.covered"
)

// call sends one request body to path through entry point e and
// returns the response body. tr may be nil except for viaEngine; when
// set, the call is recorded as a request of its own.
func (s *server) call(e entry, path string, body []byte, tr *Tracer) ([]byte, error) {
	var req, root int64
	var start int64
	if tr != nil {
		req, root, start = tr.NewID(), tr.NewID(), tr.Now()
	}
	var out []byte
	var err error
	name := spanHTTP
	switch e {
	case viaHTTP:
		out, err = s.post(path, body)
	case viaHandler:
		name = spanHandler
		out, err = s.serveInProcess(path, body)
	case viaEngine:
		name = spanDirect
		out, err = s.resolveDirect(path, body, tr, req, root)
	}
	if tr != nil {
		tr.Record(Span{Name: name, ID: root, Req: req, StartNS: start, EndNS: tr.Now()})
	}
	return out, err
}

// post sends the body over loopback HTTP.
func (s *server) post(path string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// serveInProcess runs the server's handler on a response recorder.
func (s *server) serveInProcess(path string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// resolveDirect does what the handler does between its wrapper and
// the wire — decode, resolve, encode — each step timed as a span, with
// a span sink on the resolve call.
func (s *server) resolveDirect(path string, body []byte, tr *Tracer, req, root int64) ([]byte, error) {
	single := path == pathSingle
	t0 := tr.Now()
	var specs []sweep.ConfigSpec
	if single {
		var sj serve.SpecJSON
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sj); err != nil {
			return nil, err
		}
		spec, err := sj.Spec()
		if err != nil {
			return nil, err
		}
		specs = []sweep.ConfigSpec{spec}
	} else {
		var br serve.BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&br); err != nil {
			return nil, err
		}
		specs = make([]sweep.ConfigSpec, len(br.Specs))
		for i, sj := range br.Specs {
			spec, err := sj.Spec()
			if err != nil {
				return nil, err
			}
			specs[i] = spec
		}
	}
	t1 := tr.Now()
	tr.Record(Span{Name: spanDecode, ID: tr.NewID(), Parent: root, Req: req, StartNS: t0, EndNS: t1})

	rid := tr.NewID()
	sink := newResolveSink(tr, req, rid, len(specs))
	ctx := sweep.WithSpanSink(context.Background(), sink)
	eng := s.srv.Engine()
	var results []sweep.Resolution
	var err error
	if single {
		var r sweep.Resolution
		r, err = eng.ResolveCtx(ctx, specs[0])
		results = []sweep.Resolution{r}
	} else {
		results, err = eng.ResolveBatchCtx(ctx, specs)
	}
	t2 := tr.Now()
	tr.Record(Span{Name: spanResolve, ID: rid, Parent: root, Req: req, StartNS: t1, EndNS: t2})
	sink.flush()
	if err != nil {
		return nil, err
	}

	t3 := tr.Now()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if single {
		err = enc.Encode(resultJSON(results[0]))
	} else {
		resp := serve.BatchResponse{Results: make([]serve.ResultJSON, len(results)), Paths: make(map[string]int)}
		for i, r := range results {
			resp.Results[i] = resultJSON(r)
			resp.Paths[r.Path.String()]++
		}
		err = enc.Encode(resp)
	}
	tr.Record(Span{Name: spanEncode, ID: tr.NewID(), Parent: root, Req: req, StartNS: t3, EndNS: tr.Now()})
	return buf.Bytes(), err
}

// resultJSON is the wire form of one resolution, as the server writes
// it.
func resultJSON(r sweep.Resolution) serve.ResultJSON {
	return serve.ResultJSON{
		Family: r.Family, BEff: r.BW.String(), Num: r.BW.Num, Den: r.BW.Den,
		Path: r.Path.String(), Theorem: r.Theorem, Canonical: r.Canonical,
		CycleLength: r.CycleLength, Clocks: r.Clocks,
	}
}

// The two API paths the workloads drive.
const (
	pathSingle = "/v1/bandwidth"
	pathBatch  = "/v1/batch"
)
