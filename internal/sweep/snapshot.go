package sweep

// Engine observability: a JSON-serialisable snapshot of the engine's
// cumulative counters plus the per-pool-slot work distribution, the
// raw material of the BENCH_*.json perf trajectory and the CLIs'
// -metrics-out output.

// WorkerStat is the cumulative work of one pool slot (slot k of every
// sweep call maps to entry k; the single-worker fallback is slot 0).
type WorkerStat struct {
	Worker int   `json:"worker"`
	Items  int64 `json:"items"`   // work items (pair/triple sweep units) completed
	Steps  int64 `json:"steps"`   // simulator clocks stepped by this slot
	BusyNS int64 `json:"busy_ns"` // wall time spent inside work items
	// Utilization is BusyNS over the engine's total sweep wall time,
	// clamped to [0,1]: how busy this slot was while sweeps ran.
	Utilization float64 `json:"utilization"`
}

// Snapshot is the engine's full observability view. All fields
// aggregate over every sweep the engine has run.
type Snapshot struct {
	Workers      int     `json:"workers"` // configured pool size
	Metrics      Metrics `json:"metrics"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// AnalyticHitRate is the fraction of starts the classifier gate
	// answered without simulation or cache traffic.
	AnalyticHitRate float64 `json:"analytic_hit_rate"`
	// WallNS is wall time spent inside sweep calls; CycleDetectNS the
	// part spent in steady-state detection (summed across workers, so
	// it can exceed WallNS on a multi-core sweep, but never their busy
	// time), added as each work item ends.
	WallNS        int64 `json:"wall_ns"`
	CycleDetectNS int64 `json:"cycle_detect_ns"`
	// MeanCycleClocks and MeanCycleDetectNS are the steady-state
	// detection latency per simulated start, in simulator clocks
	// (lead + period) and wall nanoseconds.
	MeanCycleClocks   float64      `json:"mean_cycle_clocks"`
	MeanCycleDetectNS float64      `json:"mean_cycle_detect_ns"`
	PerWorker         []WorkerStat `json:"per_worker,omitempty"`
	// TimelineEvents holds the worker timeline when Options.Timeline
	// was set (absent otherwise); TimelineDropped counts events the
	// recorder's capacity bound lost. Readers built before these fields
	// existed ignore them.
	TimelineEvents  []TimelineEvent `json:"timeline_events,omitempty"`
	TimelineDropped int64           `json:"timeline_dropped,omitempty"`
	// Provenance holds the aggregated result-attribution view when
	// Options.Provenance was set (absent otherwise): the answer tally's
	// per-family path splits and per-theorem analytic hits joined with
	// the recorder's orbit-size histograms and top unexplained orbits.
	// Readers built before this field existed ignore it.
	Provenance *ProvenanceSnapshot `json:"provenance,omitempty"`
}

// Snapshot captures the engine's counters and per-worker utilisation.
// Safe to call concurrently with running sweeps; slots still mid-item
// report their work as of their last finished sweep.
func (e *Engine) Snapshot() Snapshot {
	tally := e.Tally()
	m := e.metrics(tally)
	s := Snapshot{
		Workers:         e.workers(),
		Metrics:         m,
		CacheHitRate:    m.HitRate(),
		AnalyticHitRate: m.AnalyticHitRate(),
		WallNS:          e.wallNS.Load(),
		CycleDetectNS:   e.cycleNS.Load(),
	}
	if m.CyclesFound > 0 {
		s.MeanCycleClocks = float64(m.StepsSimulated) / float64(m.CyclesFound)
		s.MeanCycleDetectNS = float64(s.CycleDetectNS) / float64(m.CyclesFound)
	}
	e.mu.Lock()
	s.PerWorker = append([]WorkerStat(nil), e.workerTotals...)
	e.mu.Unlock()
	if tl := e.opt.Timeline; tl != nil {
		s.TimelineEvents = tl.Events()
		s.TimelineDropped = tl.Dropped()
	}
	if prov := e.opt.Provenance; prov != nil {
		ps := prov.view(tally)
		s.Provenance = &ps
	}
	for i := range s.PerWorker {
		if s.WallNS > 0 {
			u := float64(s.PerWorker[i].BusyNS) / float64(s.WallNS)
			if u > 1 {
				u = 1
			}
			s.PerWorker[i].Utilization = u
		}
	}
	return s
}
