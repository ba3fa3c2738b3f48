package serve

// /statusz: the human-readable one-page state of a running ivmserved —
// uptime, per-endpoint traffic and latency quantiles, the answer-path
// split, the engine's cache and gate hit rates per family, store
// health, and the most recent slow requests. Everything on it is also
// machine-readable elsewhere (/metrics, /metrics.json, the access
// log); statusz is the page a human opens first when triaging.

import (
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"

	"ivm/internal/sweep"
)

// handleStatusz serves GET /statusz.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET /statusz")
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ivmserved status\n================\n\n")
	fmt.Fprintf(&b, "uptime:          %s\n", time.Since(s.start).Round(time.Second))
	fmt.Fprintf(&b, "seeded records:  %d\n", s.seeded)
	fmt.Fprintf(&b, "workers:         %d\n\n", s.eng.Snapshot().Workers)

	b.WriteString("endpoints\n---------\n")
	fmt.Fprintf(&b, "%-10s %10s %8s %10s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "mean", "p50", "p95", "p99")
	for i, name := range endpointNames {
		snap := s.latency[i].Snapshot()
		fmt.Fprintf(&b, "%-10s %10d %8d %10s %10s %10s %10s\n",
			name, snap.Count, s.errors[i].Load(),
			fmtStatusDur(snap.Mean()), fmtStatusDur(snap.P50),
			fmtStatusDur(snap.P95), fmtStatusDur(snap.P99))
	}

	b.WriteString("\nanswer paths\n------------\n")
	for p, n := range s.pathCounts() {
		fmt.Fprintf(&b, "%-12s %10d\n", sweep.Path(p).String(), n)
	}

	snap := s.eng.Snapshot()
	b.WriteString("\nengine\n------\n")
	fmt.Fprintf(&b, "pairs resolved:    %d\n", snap.Metrics.PairsSwept)
	fmt.Fprintf(&b, "cycles simulated:  %d\n", snap.Metrics.CyclesFound)
	fmt.Fprintf(&b, "steps simulated:   %d\n", snap.Metrics.StepsSimulated)
	fmt.Fprintf(&b, "cache evicted:     %d\n", s.eng.CacheEvicted())
	fmt.Fprintf(&b, "cache hit rate:    %.4f\n", snap.CacheHitRate)
	fmt.Fprintf(&b, "analytic hit rate: %.4f\n", snap.AnalyticHitRate)
	if fams := snap.Metrics.Families; len(fams) > 0 {
		names := make([]string, 0, len(fams))
		for name := range fams {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("per-family cache hit rates:\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-16s %.4f\n", name, snap.Metrics.FamilyHitRate(name))
		}
	}

	if s.store != nil {
		h := s.store.Health()
		b.WriteString("\nstore\n-----\n")
		fmt.Fprintf(&b, "frames:     %d\nskipped:    %d\nduplicates: %d\n", h.Records, h.SkippedRecords, h.DuplicateRecords)
		if h.Err != "" {
			fmt.Fprintf(&b, "ERROR:      %s\n", h.Err)
		} else {
			b.WriteString("healthy\n")
		}
	}

	slow, slowTotal := s.slow.snapshot()
	b.WriteString("\nslow requests\n-------------\n")
	if s.slowThreshold <= 0 {
		b.WriteString("tracking disabled (-slow-ms 0)\n")
	} else {
		fmt.Fprintf(&b, "threshold %s, %d slow all-time, last %d retained\n",
			s.slowThreshold, slowTotal, len(slow))
		for i := len(slow) - 1; i >= 0; i-- { // newest first
			e := slow[i]
			fmt.Fprintf(&b, "\n  %s  %s  %s  status=%d  dur=%s\n",
				e.When.Format(time.RFC3339), e.ID, e.Endpoint, e.Status,
				e.Dur.Round(time.Microsecond))
			fmt.Fprintf(&b, "    path=%s theorem=%s family=%s results=%d\n",
				orDash(e.Path), orDash(e.Theorem), orDash(e.Family), e.Results)
			if len(e.Spans) > 0 {
				fmt.Fprintf(&b, "    spans: %s\n", spanBreakdown(e.Spans))
			}
		}
	}

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>ivmserved /statusz</title></head><body><pre>%s</pre></body></html>\n",
		html.EscapeString(b.String()))
}

// fmtStatusDur renders a latency in seconds for the statusz tables
// ("-" when zero).
func fmtStatusDur(sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

// orDash substitutes "-" for an empty attribution field.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
