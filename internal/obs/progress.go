package obs

// Live sweep progress: a Progress reads an engine's own work-item
// counters (Engine.WorkItems: planned, completed, first-planned clock)
// and its Metrics path split, derives throughput and ETA, renders a
// one-line status for periodic stderr updates (Start), and exposes
// itself as an expvar and a Prometheus source — how a multi-hour
// census stays observable from the terminal that launched it and from
// a scraper alike. The engine needs no hook for it: progress is a view
// over counters it keeps anyway.

import (
	"expvar"
	"fmt"
	"io"
	"time"

	"ivm/internal/sweep"
)

// Progress tracks an engine's sweep completion against planned work.
// All methods are safe for concurrent use with running sweeps; build
// with NewProgress.
type Progress struct {
	eng *sweep.Engine
}

// NewProgress builds a progress view over eng.
func NewProgress(eng *sweep.Engine) *Progress {
	return &Progress{eng: eng}
}

// ProgressSnapshot is one observation of a progress tracker.
type ProgressSnapshot struct {
	Total   int64   `json:"total"`
	Done    int64   `json:"done"`
	Elapsed float64 `json:"elapsed_seconds"`
	// Rate is completed items per second since the first planned item;
	// ETA the projected seconds until the remaining items complete at
	// that rate (0 until the rate is measurable).
	Rate float64 `json:"items_per_second"`
	ETA  float64 `json:"eta_seconds"`
}

// Snapshot observes the engine: totals, elapsed wall time, completion
// rate and projected time to finish.
func (p *Progress) Snapshot() ProgressSnapshot {
	total, done, since := p.eng.WorkItems()
	return progressAt(total, done, since)
}

// progressAt derives a snapshot from planned and completed item counts
// and the wall clock of the first planned item (zero when none).
func progressAt(total, done int64, since time.Time) ProgressSnapshot {
	s := ProgressSnapshot{Total: total, Done: done}
	if !since.IsZero() {
		s.Elapsed = time.Since(since).Seconds()
	}
	if s.Elapsed > 0 && s.Done > 0 {
		s.Rate = float64(s.Done) / s.Elapsed
		if rem := s.Total - s.Done; rem > 0 {
			s.ETA = float64(rem) / s.Rate
		}
	}
	return s
}

// Line renders the one-line status: completion, throughput, ETA, and
// the per-path split of the placements resolved so far. Every
// simulation runs exactly one steady-state detection, so the engine's
// CyclesFound is the simulated share.
func (p *Progress) Line() string {
	s := p.Snapshot()
	pctDone := 0.0
	if s.Total > 0 {
		pctDone = 100 * float64(s.Done) / float64(s.Total)
	}
	line := fmt.Sprintf("progress: %d/%d items (%.1f%%), %.1f items/s, ETA %s",
		s.Done, s.Total, pctDone, s.Rate, fmtETA(s.ETA))
	m := p.eng.Metrics()
	analytic, cache, sim := m.AnalyticHits, m.CacheHits, m.CyclesFound
	if n := analytic + cache + sim; n > 0 {
		line += fmt.Sprintf(" | paths: analytic %s, cache %s, sim %s",
			pctOf(analytic, n), pctOf(cache, n), pctOf(sim, n))
	}
	return line
}

// pctOf renders n out of total as a percentage string.
func pctOf(n, total int64) string {
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// fmtETA renders a projected duration compactly ("-" before any rate
// is measurable).
func fmtETA(seconds float64) string {
	if seconds <= 0 {
		return "-"
	}
	return time.Duration(float64(time.Second) * seconds).Round(time.Second).String()
}

// Start launches a goroutine writing the status line to w every
// period, and returns a stop function that writes one final line and
// halts the reporter. A typical caller passes os.Stderr and a few
// seconds.
func (p *Progress) Start(w io.Writer, every time.Duration) (stop func()) {
	if every <= 0 {
		every = 5 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, p.Line()) //nolint:errcheck // best-effort status
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		fmt.Fprintln(w, p.Line()) //nolint:errcheck // best-effort status
	}
}

// Publish exposes the tracker's snapshot in the process's expvar set
// (/debug/vars) under name. Publishing the same name twice is a no-op,
// matching Registry.Publish.
func (p *Progress) Publish(name string) {
	if _, loaded := published.LoadOrStore(name, true); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return p.Snapshot() }))
}

// PromMetrics adapts the tracker to a Prometheus source for
// Registry.RegisterProm.
func (p *Progress) PromMetrics() []PromMetric {
	s := p.Snapshot()
	return []PromMetric{
		Gauge("ivm_progress_items", "Work items planned across all sweeps announced so far.", float64(s.Total)),
		Counter("ivm_progress_items_done_total", "Work items completed.", float64(s.Done)),
		Counter("ivm_progress_elapsed_seconds_total", "Wall seconds since the first work item was announced.", s.Elapsed),
		Gauge("ivm_progress_items_per_second", "Completion throughput since the first announcement.", s.Rate),
		Gauge("ivm_progress_eta_seconds", "Projected seconds until the remaining items complete (0 when unknown).", s.ETA),
	}
}
