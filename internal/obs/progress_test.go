package obs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivm/internal/sweep"
)

// A progress tracker over an engine must see exactly the engine's
// work: every planned item announced, every item completed.
func TestProgressTracksEngine(t *testing.T) {
	eng := sweep.NewEngine(sweep.Options{Workers: 2})
	prog := NewProgress(eng)
	eng.Grid(13, 4)
	eng.TripleGrid(5, 2)
	s := prog.Snapshot()
	if s.Total == 0 || s.Total != s.Done {
		t.Errorf("after completed sweeps: total %d done %d", s.Total, s.Done)
	}
	if want := eng.Metrics().PairsSwept; s.Done != want {
		t.Errorf("done %d != engine sweep units %d", s.Done, want)
	}
	if s.Elapsed <= 0 || s.Rate <= 0 {
		t.Errorf("no throughput measured: %+v", s)
	}
	if s.ETA != 0 {
		t.Errorf("finished run projects ETA %v", s.ETA)
	}
}

// The status line's path split comes from the engine's answer tally,
// with or without caching: it must equal the tally's split.
func TestProgressLineAndPaths(t *testing.T) {
	for _, cache := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) { checkProgressLine(t, cache) })
	}
}

func checkProgressLine(t *testing.T, cacheSize int) {
	eng := sweep.NewEngine(sweep.Options{Workers: 2, CacheSize: cacheSize})
	prog := NewProgress(eng)
	eng.Grid(13, 4)
	line := prog.Line()
	for _, want := range []string{"progress:", "items/s", "ETA", "analytic", "cache", "sim"} {
		if !strings.Contains(line, want) {
			t.Errorf("status line lacks %q: %s", want, line)
		}
	}
	var analytic, cache, sim int64
	for _, f := range eng.Tally() {
		analytic += f.Analytic
		cache += f.CacheHits
		sim += f.SimScalar + f.SimPacked
	}
	n := analytic + cache + sim
	want := fmt.Sprintf("paths: analytic %s, cache %s, sim %s", pctOf(analytic, n), pctOf(cache, n), pctOf(sim, n))
	if !strings.HasSuffix(line, want) {
		t.Errorf("status line %q, want the tally's split %q", line, want)
	}
}

// partBatch starts a Workers-1 engine resolving n fixed placements
// and holds it after k items complete: each 3-stream census item
// canonicalises exactly once, so the batch's span sink blocks at the
// (k+1)-th canonicalise span, inside item k+1, while the engine has
// planned n items and completed exactly k. release lets the batch
// finish and waits for it.
func partBatch(t *testing.T, n, k int) (eng *sweep.Engine, release func()) {
	t.Helper()
	specs := make([]sweep.ConfigSpec, n)
	for i := range specs {
		specs[i] = sweep.TripleCensusSpec(13, 4, [3]int{1, 2, 6}, [3]int{0, i % 13, i / 13 % 13})
	}
	held, resume := make(chan struct{}), make(chan struct{})
	eng = sweep.NewEngine(sweep.Options{Workers: 1})
	ctx := sweep.WithSpanSink(context.Background(), &holdAt{k: int64(k + 1), held: held, resume: resume})
	finished := make(chan error, 1)
	go func() {
		_, err := eng.ResolveBatchCtx(ctx, specs)
		finished <- err
	}()
	select {
	case <-held:
	case err := <-finished:
		t.Fatalf("batch finished without holding at item %d: %v", k, err)
	}
	time.Sleep(2 * time.Millisecond) // a measurable elapsed time for the rate
	return eng, func() {
		close(resume)
		if err := <-finished; err != nil {
			t.Error(err)
		}
	}
}

// holdAt is a span sink that blocks the k-th canonicalise span until
// resume is closed, announcing it on held.
type holdAt struct {
	n            atomic.Int64
	k            int64
	held, resume chan struct{}
}

func (h *holdAt) Start() int64 { return 0 }

func (h *holdAt) Span(name string, _ int64) {
	if name == sweep.SpanCanon && h.n.Add(1) == h.k {
		close(h.held)
		<-h.resume
	}
}

// A tracker over a part-done batch reports planned and completed items
// apart, a percentage below 100 and a positive ETA; once the batch
// finishes it reports completion and no ETA.
func TestProgressPartDone(t *testing.T) {
	eng, release := partBatch(t, 10, 4)
	prog := NewProgress(eng)
	s := prog.Snapshot()
	if s.Total != 10 || s.Done != 4 {
		t.Errorf("part-done snapshot %+v, want 4 of 10", s)
	}
	if s.Rate <= 0 || s.ETA <= 0 {
		t.Errorf("part-done snapshot projects no ETA: %+v", s)
	}
	if line := prog.Line(); !strings.Contains(line, "progress: 4/10 items (40.0%)") {
		t.Errorf("part-done status line %q", line)
	}
	release()
	s = prog.Snapshot()
	if s.Total != 10 || s.Done != 10 || s.ETA != 0 {
		t.Errorf("finished snapshot %+v, want 10 of 10 and no ETA", s)
	}
}

func TestProgressPeriodicReporter(t *testing.T) {
	eng, release := partBatch(t, 10, 4)
	prog := NewProgress(eng)
	var buf syncBuffer
	stop := prog.Start(&buf, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	release()
	out := buf.String()
	if !strings.Contains(out, "4/10 items (40.0%)") {
		t.Errorf("reporter output lacks the part-done line: %q", out)
	}
	// stop() flushes a final line even if the ticker never fired.
	if strings.Count(out, "progress:") < 2 {
		t.Errorf("expected periodic plus final line, got %q", out)
	}
	if line := prog.Line(); !strings.Contains(line, "10/10 items (100.0%)") {
		t.Errorf("status line after the batch: %q", line)
	}
}

// syncBuffer makes bytes.Buffer safe against the reporter goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFmtETA pins the ETA renderer's edges: no measurable rate,
// sub-second, rounding across a minute boundary, and multi-hour.
func TestFmtETA(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		want    string
	}{
		{0, "-"},         // zero rate: no projection yet
		{-3, "-"},        // defensive: negative never renders
		{0.4, "0s"},      // sub-second rounds down to zero seconds
		{0.6, "1s"},      // ...and up past the half mark
		{59.6, "1m0s"},   // rounding crosses the minute boundary
		{7261, "2h1m1s"}, // multi-hour stays exact to the second
	} {
		if got := fmtETA(tc.seconds); got != tc.want {
			t.Errorf("fmtETA(%g) = %q, want %q", tc.seconds, got, tc.want)
		}
	}
}

// TestProgressUnknownTotal: a snapshot whose Total is unknown (work
// done with nothing planned, or more done than planned) must project
// no ETA, and over an engine that has planned nothing yet the
// ivm_progress_eta_seconds gauge must read exactly 0 rather than a
// negative or runaway value. A known total above done, by contrast,
// projects the remaining items at the measured rate.
func TestProgressUnknownTotal(t *testing.T) {
	for _, total := range []int64{0, 3} {
		s := progressAt(total, 5, time.Now().Add(-2*time.Millisecond))
		if s.Total != total || s.Done != 5 {
			t.Fatalf("snapshot %+v", s)
		}
		if s.Rate <= 0 {
			t.Errorf("total %d: rate %g, want > 0 (work did complete)", total, s.Rate)
		}
		if s.ETA != 0 {
			t.Errorf("ETA %g with total %d below done, want 0", s.ETA, total)
		}
	}
	// A known total above done projects the remainder at the rate.
	s := progressAt(10, 4, time.Now().Add(-2*time.Millisecond))
	if want := 6 / s.Rate; s.ETA <= 0 || math.Abs(s.ETA-want) > 1e-9*want {
		t.Errorf("4 of 10 done: ETA %g, want %g", s.ETA, want)
	}
	prog := NewProgress(sweep.NewEngine(sweep.Options{}))
	if s := prog.Snapshot(); s != (ProgressSnapshot{}) {
		t.Errorf("idle engine snapshot %+v, want zero", s)
	}
	var buf bytes.Buffer
	if err := WritePromText(&buf, prog.PromMetrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkExposition(t, out)
	if !strings.Contains(out, "ivm_progress_eta_seconds 0") {
		t.Errorf("eta gauge not pinned to 0:\n%s", out)
	}
	if !strings.Contains(prog.Line(), "ETA -") {
		t.Errorf("status line should render ETA as '-': %s", prog.Line())
	}
}

func TestProgressPromMetrics(t *testing.T) {
	eng, release := partBatch(t, 100, 25)
	defer release()
	var buf bytes.Buffer
	if err := WritePromText(&buf, NewProgress(eng).PromMetrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkExposition(t, out)
	for _, want := range []string{
		"ivm_progress_items 100",
		"ivm_progress_items_done_total 25",
		"# TYPE ivm_progress_eta_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ivm_progress_eta_seconds 0\n") {
		t.Errorf("part-done exposition projects no ETA:\n%s", out)
	}
}
