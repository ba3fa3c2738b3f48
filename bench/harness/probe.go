package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/sweep"
)

// The layer probes of a traced run time calls into a module's public
// functions from outside, on a seeded sample of the workload's own
// placements. They cover what the traced traffic cannot attribute:
// the kernel's host cost per simulated clock, the pair gate on
// workloads whose specs the engine never offers to it, and the store's
// append, open and replay costs.

// sampleSize is the number of placements the probes run on.
const sampleSize = 256

// sampleSpecs draws a seeded sample of fixed placements from specs;
// a swept stream gets a seeded start.
func sampleSpecs(seed uint64, specs []sweep.ConfigSpec) []sweep.ConfigSpec {
	r := rng(seed, streamSample)
	out := make([]sweep.ConfigSpec, sampleSize)
	for i := range out {
		spec := specs[r.IntN(len(specs))]
		spec.Streams = append([]sweep.Stream(nil), spec.Streams...)
		for j := range spec.Streams {
			if spec.Streams[j].Sweep {
				spec.Streams[j].Sweep = false
				spec.Streams[j].B = r.IntN(spec.M)
			}
		}
		out[i] = spec
	}
	return out
}

// probeLayers runs every probe of a served workload; the store probes
// read the server's own store.
func (s *server) probeLayers(res *Result, cfg Config, sample []sweep.ConfigSpec) error {
	if err := probeMemsys(res, sample); err != nil {
		return err
	}
	probeGate(res, sample)
	if err := s.store.Sync(); err != nil {
		return err
	}
	return probeStore(res, s.srv.Engine().CacheRecords(), s.dir, cfg.WorkDir)
}

// findCycleBudget bounds one probe simulation, as the engine bounds
// its own.
const findCycleBudget = 1 << 22

// probeMemsys simulates each sample placement on a fresh packed-kernel
// system: the simulate time is construction plus steady-state
// detection, and the host nanoseconds per simulated clock measure the
// kernel's efficiency.
func probeMemsys(res *Result, sample []sweep.ConfigSpec) error {
	var simNS, findNS, clocks int64
	for _, spec := range sample {
		t0 := time.Now()
		sys := memsys.New(memConfig(spec))
		if memsys.PackedSupportsPriority(spec.Priority) {
			sys.SetKernel(memsys.KernelPacked)
		}
		sys.AddStreams(streamSpecs(spec)...)
		t1 := time.Now()
		c, err := sys.FindCycle(findCycleBudget)
		if err != nil {
			return fmt.Errorf("memsys probe: %v", err)
		}
		t2 := time.Now()
		simNS += t2.Sub(t0).Nanoseconds()
		findNS += t2.Sub(t1).Nanoseconds()
		clocks += c.Lead + c.Length
	}
	n := float64(len(sample))
	res.set("memsys.simulate_us", float64(simNS)/n/1e3, "us")
	res.set("memsys.findcycle_us", float64(findNS)/n/1e3, "us")
	res.set("memsys.ns_per_clock", float64(findNS)/float64(max(clocks, 1)), "ns")
	return nil
}

// memConfig is the memory system a spec describes: its shape plus one
// CPU per distinct issuing CPU index.
func memConfig(spec sweep.ConfigSpec) memsys.Config {
	cpus := 1
	for _, st := range spec.Streams {
		cpus = max(cpus, st.CPU+1)
	}
	return memsys.Config{
		Banks: spec.M, Sections: spec.S, BankBusy: spec.NC, CPUs: cpus,
		Mapping: spec.Mapping, Priority: spec.Priority,
	}
}

func streamSpecs(spec sweep.ConfigSpec) []memsys.StreamSpec {
	out := make([]memsys.StreamSpec, len(spec.Streams))
	for i, st := range spec.Streams {
		out[i] = memsys.StreamSpec{Start: st.B, Distance: st.D, CPU: st.CPU}
	}
	return out
}

// probeGate compiles the pair gate for each sample placement's leading
// stream pair and queries it at the placement's starts, repeating the
// sample until the total is long enough to time. On specs of more than
// two streams the engine never consults the gate; there the figure is
// what the gate would cost on these inputs, and the ledger charges it
// nothing.
func probeGate(res *Result, sample []sweep.ConfigSpec) {
	const minTime = 20 * time.Millisecond
	calls := 0
	var answers int64
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < minTime {
		for _, spec := range sample {
			a, b := spec.Streams[0], spec.Streams[1]
			g := core.NewPairGateUnder(spec.M, spec.NC, a.D, b.D, spec.Priority)
			if v, ok := g.BandwidthAt(a.B, b.B); ok {
				answers += v.Num
			}
			calls++
		}
	}
	runtime.KeepAlive(answers)
	res.set("core.gate_us", float64(time.Since(t0).Nanoseconds())/float64(calls)/1e3, "us")
}

// storeReps is how many times the open and replay probes repeat; the
// median is reported.
const storeReps = 3

// probeStore times the store: appending records (Put each, then the
// final Sync) into a scratch store, and opening the store in dir —
// the scratch store when dir is "" — and replaying its records into a
// fresh engine's cache: the two halves of a restart.
func probeStore(res *Result, records []sweep.CacheRecord, dir, workDir string) error {
	scratch, err := os.MkdirTemp(workDir, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if dir == "" {
		dir = scratch
	}
	st, err := cachestore.Open(scratch)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, rec := range records {
		st.Put(rec)
	}
	err = st.Sync()
	appendNS := time.Since(t0).Nanoseconds()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store probe: %v", err)
	}
	res.set("cachestore.append_us", float64(appendNS)/float64(max(len(records), 1))/1e3, "us")

	var opens, seeds []float64
	var n int
	for rep := 0; rep < storeReps; rep++ {
		t0 := time.Now()
		st, err := cachestore.Open(dir)
		if err != nil {
			return err
		}
		t1 := time.Now()
		recs := st.Records()
		n = len(recs)
		eng := sweep.NewEngine(sweep.Options{CacheSize: max(sweep.DefaultCacheSize, 2*n)})
		for _, rec := range recs {
			if err := eng.SeedCache(rec); err != nil {
				st.Close()
				return err
			}
		}
		t2 := time.Now()
		if err := st.Close(); err != nil {
			return err
		}
		opens = append(opens, t1.Sub(t0).Seconds()*1e3)
		seeds = append(seeds, t2.Sub(t1).Seconds()*1e3)
	}
	res.set("cachestore.open_ms", Median(opens), "ms")
	res.set("cachestore.seed_ms", Median(seeds), "ms")
	res.set("cachestore.records", float64(n), "count")
	fi, err := os.Stat(filepath.Join(dir, cachestore.LogName))
	if err != nil {
		return err
	}
	res.set("cachestore.log_mb", float64(fi.Size())/(1<<20), "MiB")
	return nil
}
