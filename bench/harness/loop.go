package harness

import (
	"sync"
	"time"
)

// request is one request of a served workload: its body, the
// placements it carries, how many of those the analytic gate is
// allowed to answer (sectionless fixed-priority pairs), and the check
// of its response body.
type request struct {
	body       []byte
	placements int
	gateable   int
	check      func(resp []byte) error
}

// loopOut is what one closed-loop phase measured.
type loopOut struct {
	wall time.Duration
	lat  []float64 // seconds per request, untraced phases only
	// ends and done are each request's completion time since the
	// phase began and its placements.
	ends     []time.Duration
	done     []int
	requests int64
	gateable int64
	// direct counts the placements resolved through viaEngine, the
	// entry point whose resolve call carries the span sink.
	direct int64
	failed int64
	errs   []string
}

// loop runs a closed loop: each client sends its next request only
// when the previous one has been answered, until the phase has lasted
// dur and every client has sent at least minReqs requests. Untraced,
// every request goes over HTTP; traced, each client rotates its
// requests over the three entry points.
func (s *server) loop(path string, clients []func() request, dur time.Duration, minReqs int, tr *Tracer) loopOut {
	outs := make([]loopOut, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for k := 0; k < minReqs || time.Since(start) < dur; k++ {
				rq := clients[c]()
				e := viaHTTP
				if tr != nil {
					e = entry((k + c) % int(numEntries))
				}
				t0 := time.Now()
				resp, err := s.call(e, path, rq.body, tr)
				end := time.Since(start)
				if tr == nil {
					o.lat = append(o.lat, (end - t0.Sub(start)).Seconds())
				}
				o.ends = append(o.ends, end)
				o.done = append(o.done, rq.placements)
				o.requests++
				o.gateable += int64(rq.gateable)
				if e == viaEngine {
					o.direct += int64(rq.placements)
				}
				if err == nil {
					err = rq.check(resp)
				}
				if err != nil {
					o.failed++
					if len(o.errs) < maxErrors {
						o.errs = append(o.errs, err.Error())
					}
				}
			}
		}(c)
	}
	wg.Wait()
	out := loopOut{wall: time.Since(start)}
	for _, o := range outs {
		out.lat = append(out.lat, o.lat...)
		out.ends = append(out.ends, o.ends...)
		out.done = append(out.done, o.done...)
		out.requests += o.requests
		out.gateable += o.gateable
		out.direct += o.direct
		out.failed += o.failed
		out.errs = append(out.errs, o.errs...)
	}
	return out
}

// windowRates splits the phase into at most n equal windows, few
// enough that each holds about ten requests, and returns the
// placements per second completed in each: the throughput figure is
// their median, which a burst of interference in one window does not
// move.
func (o loopOut) windowRates(n int) []float64 {
	n = max(1, min(n, len(o.ends)/10))
	win := o.wall / time.Duration(n)
	counts := make([]int, n)
	for i, end := range o.ends {
		counts[min(int(end/win), n-1)] += o.done[i]
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / win.Seconds()
	}
	return rates
}

// count folds a phase's requests and failures into the result.
func (r *Result) count(o loopOut) {
	r.Attempted += o.requests
	r.Failed += o.failed
	if o.failed > 0 {
		r.Correct = false
	}
	for _, e := range o.errs {
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, e)
		}
	}
}
