package memsys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// A system reused through Reset must find exactly the same cyclic
// steady state as a fresh one — same lead, length, per-port grants and
// bandwidth — even after simulating an unrelated configuration of
// streams in between. This is the contract the parallel sweep's
// per-worker system reuse relies on, on either kernel.
func TestResetReuseMatchesFresh(t *testing.T) {
	type pair struct{ m, nc, d1, b2, d2 int }
	pairs := []pair{
		{13, 6, 1, 0, 6}, // Fig. 3 barrier
		{12, 3, 1, 3, 7}, // Fig. 2 conflict-free
		{16, 4, 8, 1, 8}, // self-conflicting
		{13, 6, 1, 0, 6}, // Fig. 3 again, now on a dirty system
	}
	for _, k := range []Kernel{KernelScalar, KernelPacked} {
		t.Run(k.String(), func(t *testing.T) {
			fresh := make([]Cycle, len(pairs))
			for i, p := range pairs {
				sys := New(Config{Banks: p.m, BankBusy: p.nc, CPUs: 2})
				sys.SetKernel(k)
				attachPlacement(sys, p.d1, p.b2, p.d2)
				c, err := sys.FindCycle(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				fresh[i] = c
			}

			var reused *System
			for i, p := range pairs {
				cfg := Config{Banks: p.m, BankBusy: p.nc, CPUs: 2}
				if reused == nil || reused.Config() != cfg {
					reused = New(cfg)
					reused.SetKernel(k)
				} else {
					reused.Reset()
				}
				attachPlacement(reused, p.d1, p.b2, p.d2)
				c, err := reused.FindCycle(1 << 20)
				if err != nil {
					t.Fatalf("reused %v: %v", p, err)
				}
				if !reflect.DeepEqual(c, fresh[i]) {
					t.Fatalf("reused %v:\n got %+v\nfresh %+v", p, c, fresh[i])
				}
			}
		})
	}
}

// TestResetReusePackedAcrossShapes reuses one packed system for a 2-,
// then a 4-, then a 2-stream search, so the recurrence table's counter
// stride and key lengths change between searches. Each cycle must
// equal a fresh packed system's and the scalar oracle's.
func TestResetReusePackedAcrossShapes(t *testing.T) {
	cfg := Config{Banks: 16, BankBusy: 4, CPUs: 2}
	shapes := [][]StreamSpec{
		{{Start: 0, Distance: 1, CPU: 0}, {Start: 3, Distance: 7, CPU: 1}},
		{{Start: 0, Distance: 1, CPU: 0}, {Start: 3, Distance: 7, CPU: 1},
			{Start: 5, Distance: 3, CPU: 0}, {Start: 9, Distance: 5, CPU: 1}},
		{{Start: 1, Distance: 5, CPU: 0}, {Start: 2, Distance: 6, CPU: 1}},
	}
	reused := New(cfg)
	reused.SetKernel(KernelPacked)
	for i, specs := range shapes {
		reused.Reset()
		reused.AddStreams(specs...)
		got, err := reused.FindCycle(1 << 20)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		for _, k := range []Kernel{KernelPacked, KernelScalar} {
			fresh := New(cfg)
			fresh.SetKernel(k)
			fresh.AddStreams(specs...)
			want, err := fresh.FindCycle(1 << 20)
			if err != nil {
				t.Fatalf("shape %d fresh %v: %v", i, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d (%d streams): reused packed\n%+v\nfresh %v\n%+v", i, len(specs), got, k, want)
			}
		}
	}
}

// TestResetClearsPackedState reuses a packed-kernel system through
// Reset with banks still mid-busy after a packed search wrote its live
// busy set back and a few more clocks were stepped. If Reset left any
// busy bank behind, the next packed search would load it as a phantom
// busy bank; the test pins the reused cycle to a fresh packed system
// and to the scalar oracle, and checks Reset is idempotent.
func TestResetClearsPackedState(t *testing.T) {
	cfg := Config{Banks: 13, BankBusy: 6, CPUs: 2}
	attach := func(sys *System) {
		sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
		sys.AddPort(1, "2", NewInfiniteStrided(0, 6))
	}

	reused := New(cfg)
	reused.SetKernel(KernelPacked)
	attach(reused)
	if _, err := reused.FindCycle(1 << 20); err != nil {
		t.Fatal(err)
	}
	// Stop mid-busy: with n_c = 6, three more clocks leave live busy
	// banks in the counters the next packed search would load.
	reused.Run(3)
	busy := 0
	for b := 0; b < cfg.Banks; b++ {
		if reused.busy[b] != 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no bank busy before Reset; the test would check nothing")
	}
	reused.Reset()
	reused.Reset() // idempotent: a second Reset must be a no-op
	for b := 0; b < cfg.Banks; b++ {
		if reused.busy[b] != 0 || reused.BankOwner(b) != nil {
			t.Fatalf("bank %d still busy after Reset on packed kernel", b)
		}
	}
	attach(reused)
	got, err := reused.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []Kernel{KernelPacked, KernelScalar} {
		fresh := New(cfg)
		fresh.SetKernel(k)
		attach(fresh)
		want, err := fresh.FindCycle(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if got.Lead != want.Lead || got.Length != want.Length {
			t.Fatalf("reused packed lead/length %d/%d, fresh %v %d/%d", got.Lead, got.Length, k, want.Lead, want.Length)
		}
		if !got.EffectiveBandwidth().Equal(want.EffectiveBandwidth()) {
			t.Fatalf("reused packed b_eff %s, fresh %v %s", got.EffectiveBandwidth(), k, want.EffectiveBandwidth())
		}
	}
}

// Reset keeps the clock monotonic and detaches ports.
func TestResetKeepsClock(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 2, CPUs: 1})
	sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
	sys.Run(17)
	before := sys.Clock()
	sys.Reset()
	if sys.Clock() != before {
		t.Fatalf("clock rewound: %d -> %d", before, sys.Clock())
	}
	if len(sys.ports) != 0 {
		t.Fatalf("%d ports survived Reset", len(sys.ports))
	}
	for b := 0; b < 8; b++ {
		if sys.busy[b] != 0 || sys.BankOwner(b) != nil {
			t.Fatalf("bank %d still busy after Reset", b)
		}
	}
}

// portRecorder keeps every port an event names, as a timeline does.
type portRecorder struct{ ports []*Port }

func (r *portRecorder) Observe(e Event) { r.ports = append(r.ports, e.Port) }

// A listener may keep Event.Port, so AddStreams never re-arms a port a
// listener could have seen. Two ways to see one: ports built while a
// listener is attached, and ports built before a listener that is
// detached again before the next AddStreams. Either way the kept ports
// keep their ID and Label after Reset and the next AddStreams; a
// re-armed port would read label "z".
func TestAddStreamsKeepsListenedPorts(t *testing.T) {
	for _, attachFirst := range []bool{true, false} {
		sys := newPackedSystem(16, 4)
		rec := &portRecorder{}
		if attachFirst {
			sys.SetListener(rec)
		}
		sys.AddStreams(StreamSpec{Distance: 1, CPU: 0, Label: "a"}, StreamSpec{Start: 3, Distance: 7, CPU: 1, Label: "b"})
		if !attachFirst {
			sys.SetListener(rec)
		}
		sys.Run(8)
		if len(rec.ports) == 0 {
			t.Fatal("listener saw no events")
		}
		kept := append([]*Port(nil), sys.ports...)
		if !attachFirst {
			sys.SetListener(nil)
		}

		sys.Reset()
		sys.AddStreams(StreamSpec{Start: 1, Distance: 5, CPU: 1, Label: "z"}, StreamSpec{Start: 2, Distance: 3, CPU: 0, Label: "z"})
		sys.Run(8)
		for i, p := range kept {
			if p.ID != i || p.Label != "ab"[i:i+1] {
				t.Errorf("listener attached first %v: kept port %d reads ID %d label %q after the next AddStreams", attachFirst, i, p.ID, p.Label)
			}
			for _, now := range sys.ports {
				if now == p {
					t.Errorf("listener attached first %v: kept port %d was re-armed", attachFirst, i)
				}
			}
		}
	}
}

// Rearm must leave exactly the state Reset and AddStreams with the same
// CPUs and labels leave: two systems fed the same placements, one
// re-armed and one rebuilt, find the same Cycle, stop in the same state
// and keep the same ports, on either kernel, with 2–4 ports on
// repeating CPUs and under each priority rule (the rotation must be
// emptied too). A few clocks stepped after each search leave banks
// busy and the rotation moved for the next Rearm to clear.
func TestRearmMatchesResetAddStreams(t *testing.T) {
	layouts := [][]int{{0, 1}, {1, 1}, {0, 1, 0}, {0, 0, 0, 0}, {0, 1, 0, 1}, {1, 0, 0, 1}}
	rules := []PriorityRule{FixedPriority, CyclicPriority, RoundRobinPerCPU}
	for _, k := range []Kernel{KernelScalar, KernelPacked} {
		for li, cpus := range layouts {
			cfg := Config{Banks: 16, BankBusy: 4, CPUs: 2, Priority: rules[li%len(rules)]}
			rearmed, rebuilt := New(cfg), New(cfg)
			rearmed.SetKernel(k)
			rebuilt.SetKernel(k)
			r := rand.New(rand.NewSource(int64(li)))
			n := len(cpus)
			starts, dists := make([]int, n), make([]int, n)
			specs := make([]StreamSpec, n)
			for trial := 0; trial < 40; trial++ {
				for i := range specs {
					starts[i], dists[i] = r.Intn(16), 1+r.Intn(15)
					specs[i] = StreamSpec{Start: starts[i], Distance: dists[i], CPU: cpus[i]}
				}
				at := fmt.Sprintf("%v cpus %v trial %d", k, cpus, trial)
				if trial == 0 {
					rearmed.AddStreams(specs...)
				} else if !rearmed.Rearm(cpus, starts, dists) {
					t.Fatalf("%s: Rearm refused the ports it holds", at)
				}
				rebuilt.Reset()
				rebuilt.AddStreams(specs...)
				if rearmed.rr != rebuilt.rr {
					t.Fatalf("%s: rotation %d after Rearm, %d after Reset", at, rearmed.rr, rebuilt.rr)
				}
				sameState(t, rebuilt, rearmed, at+" after Rearm")
				var got, want Cycle
				errGot, errWant := rearmed.FindCycleInto(&got, 1<<20), rebuilt.FindCycleInto(&want, 1<<20)
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: %v, %v", at, errGot, errWant)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: re-armed\n%+v\nrebuilt\n%+v", at, got, want)
				}
				sameState(t, rebuilt, rearmed, at+" after FindCycleInto")
				for i, p := range rearmed.ports {
					q := rebuilt.ports[i]
					if p.ID != q.ID || p.CPU != q.CPU || p.Label != q.Label {
						t.Fatalf("%s: port %d reads %d/%d/%q, rebuilt %d/%d/%q", at, i, p.ID, p.CPU, p.Label, q.ID, q.CPU, q.Label)
					}
				}
				rearmed.Run(int64(trial % 3))
				rebuilt.Run(int64(trial % 3))
			}
		}
	}
}

// Rearm refuses wherever AddStreams would not re-arm, and a refusal
// changes nothing: not the ports, their sources or counters, the banks
// or the rotation.
func TestRearmRefuses(t *testing.T) {
	two := []StreamSpec{{Start: 0, Distance: 1, CPU: 0}, {Start: 3, Distance: 7, CPU: 1}}
	cases := []struct {
		name  string
		build func(*System)
		cpus  []int
	}{
		{"listener attached", func(s *System) { s.AddStreams(two...); s.SetListener(&portRecorder{}) }, []int{0, 1}},
		{"ports built under a listener", func(s *System) {
			s.SetListener(&portRecorder{})
			s.AddStreams(two...)
			s.SetListener(nil)
		}, []int{0, 1}},
		{"port from AddPort", func(s *System) {
			s.AddStreams(two[0])
			s.AddPort(1, "2", NewInfiniteStrided(3, 7))
		}, []int{0, 1}},
		{"more ports", func(s *System) { s.AddStreams(two...) }, []int{0, 1, 0}},
		{"fewer ports", func(s *System) { s.AddStreams(two...) }, []int{0}},
		{"no ports", func(s *System) {}, []int{0, 1}},
		{"a CPU differs", func(s *System) { s.AddStreams(two...) }, []int{0, 0}},
	}
	for _, k := range []Kernel{KernelScalar, KernelPacked} {
		for _, c := range cases {
			sys := New(Config{Banks: 16, BankBusy: 4, CPUs: 2, Priority: CyclicPriority})
			sys.SetKernel(k)
			c.build(sys)
			sys.Run(5)
			before := systemState(sys)
			n := len(c.cpus)
			if sys.Rearm(c.cpus, make([]int, n), make([]int, n)) {
				t.Errorf("%v %s: Rearm accepted", k, c.name)
			}
			if after := systemState(sys); after != before {
				t.Errorf("%v %s: a refused Rearm changed the system\nbefore %s\nafter  %s", k, c.name, before, after)
			}
		}
	}
}

// systemState renders what Rearm may write: the banks, the rotation
// and every port with its source.
func systemState(s *System) string {
	out := fmt.Sprintf("busy %v rr %d clock %d", s.busy, s.rr, s.clock)
	for b, o := range s.owner {
		if o != nil {
			out += fmt.Sprintf(" owner[%d]=%d", b, o.ID)
		}
	}
	for _, p := range s.ports {
		out += fmt.Sprintf(" | port %d cpu %d %q %+v %+v", p.ID, p.CPU, p.Label, p.Count, p.Src)
	}
	return out
}
