package memsys

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The differential equivalence suite for the bit-packed search: every
// test here runs FindCycle on a scalar system and a packed system built
// alike and demands identical Cycles and b_eff, identical per-bank busy
// state, bank owners and sources right after the search, which pins the
// packed search's write-back, then steps both on and demands the same
// grants, events and state after every clock. The
// scalar kernel is the oracle; see docs/KERNEL.md for the soundness
// argument this suite is the executable form of.

// kernelDiffCorpus covers all six classifier regimes with the same
// (m, n_c, d1, d2) seeds the sweep fuzz corpus uses, so any divergence
// in the packed kernel's conflict handling is caught in every regime.
var kernelDiffCorpus = []struct {
	name           string
	m, nc, d1, d2  int
	b2             int
	sections, cpus int
}{
	{"self_conflict", 16, 4, 8, 8, 1, 0, 2},
	{"conflict_free", 12, 3, 1, 7, 0, 0, 2},
	{"disjoint_free", 16, 4, 2, 6, 1, 0, 2},
	{"unique_barrier", 16, 2, 1, 2, 0, 0, 2},
	{"barrier_possible", 13, 4, 1, 3, 2, 0, 2},
	{"conflicting", 2, 1, 0, 1, 1, 0, 2},
	{"sectioned", 12, 3, 1, 7, 3, 4, 1},
	{"sectioned_two_cpus", 16, 4, 2, 6, 5, 4, 2},
}

// sourceSpec builds one fresh Source per system, so the two kernels
// never share mutable stream state.
type sourceSpec struct {
	cpu  int
	make func() Source
}

func infiniteSpec(cpu int, start, dist int64) sourceSpec {
	return sourceSpec{cpu, func() Source { return NewInfiniteStrided(start, dist) }}
}

func finiteSpec(cpu int, start, dist int64, n int) sourceSpec {
	return sourceSpec{cpu, func() Source { return &StridedSource{Addr: start, Stride: dist, Remaining: n} }}
}

func buildKernelPair(cfg Config, specs []sourceSpec) (scalar, packed *System) {
	scalar = New(cfg)
	packed = New(cfg)
	packed.SetKernel(KernelPacked)
	for i, sp := range specs {
		label := fmt.Sprintf("%d", i+1)
		scalar.AddPort(sp.cpu, label, sp.make())
		packed.AddPort(sp.cpu, label, sp.make())
	}
	return scalar, packed
}

// recEvent is an Event with the port pointers flattened to IDs so the
// streams of two different systems can be compared with DeepEqual.
type recEvent struct {
	Clock   int64
	Port    int
	Bank    int
	Kind    ConflictKind
	Blocker int // -1 when no blocker
}

type eventRecorder struct{ events []recEvent }

func (r *eventRecorder) Observe(e Event) {
	blocker := -1
	if e.Blocker != nil {
		blocker = e.Blocker.ID
	}
	r.events = append(r.events, recEvent{e.Clock, e.Port.ID, e.Bank, e.Kind, blocker})
}

// stepCompare drives both systems clock by clock and asserts identical
// grants, event streams and state (sameState) after every clock.
func stepCompare(t *testing.T, scalar, packed *System, steps int) {
	t.Helper()
	sRec, pRec := &eventRecorder{}, &eventRecorder{}
	scalar.SetListener(sRec)
	packed.SetListener(pRec)
	for i := 0; i < steps; i++ {
		gs, gp := scalar.Step(), packed.Step()
		if gs != gp {
			t.Fatalf("clock %d: scalar granted %d, packed %d", i, gs, gp)
		}
		if !reflect.DeepEqual(sRec.events, pRec.events) {
			t.Fatalf("clock %d: event streams diverge:\nscalar %+v\npacked %+v", i, sRec.events, pRec.events)
		}
		sameState(t, scalar, packed, fmt.Sprintf("clock %d", i))
	}
}

// sameState asserts that two systems built alike stand in the same
// state: each bank's busy time and owner (by port ID), and each port's
// counters and source, a strided source's address and issue count
// included. at names the moment for the failure message.
func sameState(t *testing.T, scalar, packed *System, at string) {
	t.Helper()
	for b := 0; b < scalar.Config().Banks; b++ {
		if bs, bp := scalar.busy[b], packed.busy[b]; bs != bp {
			t.Fatalf("%s bank %d: scalar busy %d, packed busy %d", at, b, bs, bp)
		}
		so, po := scalar.BankOwner(b), packed.BankOwner(b)
		switch {
		case (so == nil) != (po == nil):
			t.Fatalf("%s bank %d: owner nil-ness diverges", at, b)
		case so != nil && so.ID != po.ID:
			t.Fatalf("%s bank %d: scalar owner %d, packed owner %d", at, b, so.ID, po.ID)
		}
	}
	for i, port := range scalar.ports {
		pp := packed.ports[i]
		if port.Count != pp.Count {
			t.Fatalf("%s port %d counters diverge: scalar %+v packed %+v", at, i, port.Count, pp.Count)
		}
		ss, ok := port.Src.(*StridedSource)
		if !ok {
			continue
		}
		sp := pp.Src.(*StridedSource)
		if ss.Addr != sp.Addr {
			t.Fatalf("%s port %d: scalar source at %d, packed at %d", at, i, ss.Addr, sp.Addr)
		}
	}
}

// rowSkew is a test-local mapper that is not ModuloMapper: row r of m
// consecutive addresses is rotated by r, bank = (addr + addr/m) mod m.
// Under it the pending bank no longer determines the next one, so
// FindCycle must refuse it (TestFindCycleRejectsNonModuloMapper).
type rowSkew struct{ m int }

func (r rowSkew) Bank(addr int64) int { return ModuloMapper{M: r.m}.Bank(addr + addr/int64(r.m)) }
func (r rowSkew) Banks() int          { return r.m }

// compareFindCycle runs warm clocks on a fresh scalar/packed pair, so
// each search starts from the banks those clocks left busy, then runs
// FindCycle on both and demands identical cycle windows, which the
// key-free oracle (checkCycleByRun) must accept on a twin scalar
// system. Both searches start fresh, so they stop at the same clock:
// right after them sameState demands the same bank busy times and
// owners and every source at the same address with the same issue
// count, so the state the packed search writes back is the scalar
// search's. It then steps both on with stepCompare. err is the scalar
// search's error; the packed one must fail alike.
func compareFindCycle(t *testing.T, cfg Config, specs []sourceSpec, budget, warm int64) (cs, cp Cycle, err error) {
	t.Helper()
	scalar, packed := buildKernelPair(cfg, specs)
	scalar.Run(warm)
	packed.Run(warm)
	cs, errS := scalar.FindCycle(budget)
	cp, errP := packed.FindCycle(budget)
	if (errS == nil) != (errP == nil) {
		t.Fatalf("FindCycle error mismatch: scalar %v packed %v", errS, errP)
	}
	if errS != nil {
		return cs, cp, errS
	}
	if !reflect.DeepEqual(cs, cp) {
		t.Fatalf("cycle windows diverge:\nscalar %+v\npacked %+v", cs, cp)
	}
	sameState(t, scalar, packed, "after FindCycle")
	twin, _ := buildKernelPair(cfg, specs)
	twin.Run(warm)
	checkCycleByRun(t, twin, cs)
	stepCompare(t, scalar, packed, 300)
	return cs, cp, nil
}

// TestFindCycleRejectsNonModuloMapper: under a mapper other than
// ModuloMapper the state key does not determine the future, so both
// kernels refuse the search with ErrNotPeriodic instead of returning a
// recurrence that is no period. Under the row skew with one stream,
// n_c = 2, m = 2 and d = 3, the first recurring key gives b_eff 1/2
// where a long Run averages 2/3.
func TestFindCycleRejectsNonModuloMapper(t *testing.T) {
	cfg := Config{Banks: 2, BankBusy: 2}
	for _, k := range []Kernel{KernelScalar, KernelPacked} {
		sys := NewWithMapper(cfg, rowSkew{2})
		sys.SetKernel(k)
		sys.AddStreams(StreamSpec{Distance: 3})
		if _, err := sys.FindCycle(1 << 20); !errors.Is(err, ErrNotPeriodic) {
			t.Errorf("%v kernel: FindCycle under the row skew returned %v, want ErrNotPeriodic", k, err)
		}
	}
}

func corpusSpecs(m, d1, d2, b2, cpus int) []sourceSpec {
	cpu2 := 1
	if cpu2 >= cpus {
		cpu2 = 0
	}
	return []sourceSpec{
		infiniteSpec(0, 0, int64(d1)),
		infiniteSpec(cpu2, int64(b2%m), int64(d2)),
	}
}

// TestDifferentialKernelFindCycle demands identical cycle windows —
// Lead, Length, per-port grants and conflict classification — and
// therefore identical b_eff from both cycle detectors, a cycle the
// key-free oracle accepts, and identical states after them. Each
// search starts k clocks into a run, k = 0 .. n_c + 1, so from k = 1
// on it begins with banks part way through their busy time, which the
// packed search must load from the scalar counters.
func TestDifferentialKernelFindCycle(t *testing.T) {
	for _, tc := range kernelDiffCorpus {
		for _, prio := range []PriorityRule{FixedPriority, CyclicPriority, RoundRobinPerCPU} {
			cfg := Config{Banks: tc.m, BankBusy: tc.nc, Sections: tc.sections, CPUs: tc.cpus, Priority: prio}
			specs := corpusSpecs(tc.m, tc.d1, tc.d2, tc.b2, tc.cpus)
			t.Run(fmt.Sprintf("%s/%v", tc.name, prio), func(t *testing.T) {
				for k := int64(0); k <= int64(tc.nc)+1; k++ {
					t.Run(fmt.Sprintf("warm%d", k), func(t *testing.T) {
						cs, cp, err := compareFindCycle(t, cfg, specs, 1<<22, k)
						if err != nil {
							t.Fatal(err)
						}
						if bs, bp := cs.EffectiveBandwidth(), cp.EffectiveBandwidth(); bs != bp {
							t.Fatalf("b_eff diverges: scalar %v packed %v", bs, bp)
						}
					})
				}
			})
		}
	}
}

// TestDifferentialKernelRandom compares FindCycle on randomized
// (m, s, n_c, placement) configurations of two to four ports, drawn
// with a fixed seed. A trial with a finite stream must fail with
// ErrNotPeriodic on both kernels and is then searched over its
// infinite streams. Each trial first runs trial mod (n_c + 2) clocks,
// so most searches start with banks busy. Starts and distances are
// drawn in [0, m) and then lifted by a multiple of m in [-2m, 2m] from
// a second generator, so they arrive signed and unreduced and the
// packed search's stride reduction is held to the oracle too.
func TestDifferentialKernelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19850607))
	lift := rand.New(rand.NewSource(19851985))
	for trial := 0; trial < 60; trial++ {
		m := rng.Intn(24) + 1
		nc := rng.Intn(6) + 1
		s := rng.Intn(m) + 1
		for m%s != 0 {
			s--
		}
		cfg := Config{Banks: m, Sections: s, BankBusy: nc, CPUs: rng.Intn(2) + 1}
		cfg.Priority = PriorityRule(rng.Intn(3))
		if rng.Intn(2) == 1 {
			cfg.Mapping = ConsecutiveSections
		}
		np := rng.Intn(3) + 2
		var specs, infinite []sourceSpec
		for i := 0; i < np; i++ {
			cpu := rng.Intn(cfg.CPUs)
			start, dist := int64(rng.Intn(m)), int64(rng.Intn(m))
			start += int64(m) * int64(lift.Intn(5)-2)
			dist += int64(m) * int64(lift.Intn(5)-2)
			if rng.Intn(4) == 0 {
				specs = append(specs, finiteSpec(cpu, start, dist, rng.Intn(60)+1))
			} else {
				specs = append(specs, infiniteSpec(cpu, start, dist))
				infinite = append(infinite, specs[i])
			}
		}
		warm := int64(trial % (nc + 2))
		name := fmt.Sprintf("trial%02d_m%d_s%d_nc%d", trial, m, s, nc)
		t.Run(name, func(t *testing.T) {
			if len(infinite) < len(specs) {
				if _, _, err := compareFindCycle(t, cfg, specs, 1<<20, warm); !errors.Is(err, ErrNotPeriodic) {
					t.Fatalf("FindCycle with a finite stream: %v, want ErrNotPeriodic", err)
				}
			}
			if len(infinite) == 0 {
				return
			}
			if _, _, err := compareFindCycle(t, cfg, infinite, 1<<20, warm); err != nil {
				t.Fatalf("FindCycle: %v", err)
			}
		})
	}
}

// FuzzKernelEquivalence mirrors FuzzSimulatorInvariants' configuration
// space but, instead of structural invariants, checks the packed search
// against the scalar oracle: identical FindCycle output, which the
// key-free oracle must accept, and identical states right after it and
// on, for two to four infinite streams that first run up to n_c + 1
// clocks. Starts and distances are the raw bytes read as signed,
// unreduced int8s, so they may be negative or at least m. Streams 1 and
// 2 are always drawn; more holds a (distance, start) byte pair for each
// further stream, up to two. The system has 2 + cpusRaw mod 3 CPUs,
// and port i sits on CPU (i + its two bits of cpuShift) mod that count,
// so CPUs may repeat: the fuzzer reaches section conflicts between
// ports of one CPU and a bank three ports request in one clock. With
// cpusRaw, cpuShift and more zero, the streams are the original pair
// on CPUs 0 and 1, so the first seeds are the earlier two-port ones.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint8(16), uint8(4), uint8(4), uint8(1), uint8(6), uint8(3), uint8(0), false, uint8(0), uint8(0), []byte(nil))
	f.Add(uint8(12), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), false, uint8(0), uint8(0), []byte(nil))
	f.Add(uint8(13), uint8(6), uint8(1), uint8(1), uint8(6), uint8(0), uint8(0), true, uint8(0), uint8(0), []byte(nil))
	f.Add(uint8(8), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(1), true, uint8(0), uint8(0), []byte(nil))
	f.Add(uint8(12), uint8(3), uint8(3), uint8(1), uint8(7), uint8(1), uint8(2), false, uint8(0), uint8(0), []byte(nil))
	// Three ports on three CPUs on one bank every clock: simultaneous
	// conflicts against the first winner of the clock.
	f.Add(uint8(8), uint8(2), uint8(8), uint8(1), uint8(1), uint8(0), uint8(0), false, uint8(1), uint8(0), []byte{1, 0})
	// Four ports, two per CPU, on a sectioned memory: section conflicts
	// within a CPU beside simultaneous ones across CPUs.
	f.Add(uint8(12), uint8(3), uint8(3), uint8(1), uint8(2), uint8(1), uint8(1), false, uint8(0), uint8(0b0101_0000), []byte{5, 2, 7, 4})

	f.Fuzz(func(t *testing.T, mRaw, ncRaw, sRaw, d1Raw, d2Raw, b2Raw, prioRaw uint8, consecutive bool, cpusRaw, cpuShift uint8, more []byte) {
		m := int(mRaw%24) + 1
		nc := int(ncRaw%6) + 1
		s := int(sRaw%uint8(m)) + 1
		for m%s != 0 {
			s--
		}
		cpus := 2 + int(cpusRaw%3)
		cfg := Config{Banks: m, Sections: s, BankBusy: nc, CPUs: cpus}
		cfg.Priority = PriorityRule(prioRaw % 3)
		if consecutive {
			cfg.Mapping = ConsecutiveSections
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("constructed invalid config: %v", err)
		}
		streams := [][2]uint8{{d1Raw, 0}, {d2Raw, b2Raw}}
		for i := 0; i+1 < len(more) && len(streams) < 4; i += 2 {
			streams = append(streams, [2]uint8{more[i], more[i+1]})
		}
		specs := make([]sourceSpec, len(streams))
		for i, st := range streams {
			cpu := (i + int(cpuShift>>(2*i)&3)) % cpus
			specs[i] = infiniteSpec(cpu, int64(int8(st[1])), int64(int8(st[0])))
		}
		compareFindCycle(t, cfg, specs, 1<<20, int64(prioRaw/3)%int64(nc+2))
	})
}
