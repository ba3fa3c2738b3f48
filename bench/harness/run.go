package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Config is one invocation of the benchmark.
type Config struct {
	Seed uint64
	// Seconds is the length of each workload's timed phase.
	Seconds int
	// Trace selects the per-layer run: spans around each layer call,
	// per-layer probes and the ledger, in place of the end-to-end
	// figures.
	Trace bool
	// Quick runs every workload at a tiny size (the smoke test).
	Quick bool
	// WorkDir holds the workloads' stores, each in a subdirectory
	// removed after the workload, and the traced runs' Chrome trace
	// files.
	WorkDir string

	// plant corrupts one expected answer, so tests can check that a
	// wrong answer fails the run.
	plant bool
}

// phaseLen is the timed phase length: Seconds, or a fraction of a
// second in quick mode.
func (c Config) phaseLen() time.Duration {
	if c.Quick {
		return 300 * time.Millisecond
	}
	return time.Duration(c.Seconds) * time.Second
}

// Workloads lists the workload names in run order.
var Workloads = []string{"serve-single", "batch-cold", "restart-warm", "sweep-census"}

// Run runs one workload.
func Run(name string, cfg Config) (*Result, error) {
	dir, err := os.MkdirTemp(cfg.WorkDir, name+"-")
	if err != nil {
		return nil, fmt.Errorf("%s: work dir: %w", name, err)
	}
	defer os.RemoveAll(dir)
	var res *Result
	switch name {
	case "serve-single":
		res, err = runServeSingle(cfg, dir)
	case "batch-cold":
		res, err = runBatchCold(cfg, dir)
	case "restart-warm":
		res, err = runRestartWarm(cfg, dir)
	case "sweep-census":
		res, err = runCensus(cfg, dir)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, Workloads)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.finish()
	return res, nil
}

// writeTrace writes the tracer's spans to the workload's Chrome trace
// file in the work directory.
func writeTrace(cfg Config, workload string, tr *Tracer) error {
	path := filepath.Join(cfg.WorkDir, fmt.Sprintf("ivmbench-%s-seed%d.trace.json", workload, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Set-up is timed at least minSetupReps times, and repeated until
// minSetupTime has been spent (at most maxSetupReps times). Each
// workload's set-up carries tens of milliseconds of the program's own
// work or more, not only opening files, so that its median is
// not a file-system latency.
const (
	minSetupReps = 5
	maxSetupReps = 200
	minSetupTime = 500 * time.Millisecond
)

// timeSetup times open repeatedly and returns the product of the last
// repetition, discarding the others, with the median set-up time in
// seconds. The heap is collected before each repetition so that one
// repetition's garbage is not charged to the next. Quick runs stop at
// minSetupReps.
func timeSetup[T any](cfg Config, open func() (T, error), discard func(T) error) (T, float64, error) {
	minTime := minSetupTime
	if cfg.Quick {
		minTime = 0
	}
	var last T
	var times []float64
	var spent time.Duration
	for rep := 0; rep < minSetupReps || (spent < minTime && rep < maxSetupReps); rep++ {
		if rep > 0 {
			if err := discard(last); err != nil {
				return last, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		v, err := open()
		d := time.Since(t0)
		if err != nil {
			return last, 0, err
		}
		last = v
		spent += d
		times = append(times, d.Seconds())
	}
	return last, Median(times), nil
}

// liveHeapMB is the heap still reachable after a full collection, in
// MiB: what the program's caches, indexes and recorders retain, plus
// the workload's own inputs.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
