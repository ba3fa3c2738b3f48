package memsys

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// censusRow is one census work item in memsys terms: a memory and its
// streams' distances and CPUs, with stream 1 at bank 0 and every other
// start swept over [0, m). The sweep engine resolves an item's
// placements on one worker System, so their searches share one
// recurrence table.
type censusRow struct {
	name string
	cfg  Config
	dist []int
	cpu  []int
}

// censusRows holds one row of each census family: the pair, section
// and consecutive-section grids, the (13, 4) triple grid and the
// (8, 2, 4) 4-stream grid. The triple grid's stalled row, where two
// streams keep asking for one bank, has searches whose cycle starts at
// the search's first state, so a search that files its first state
// wrongly cannot find the recurrence to it.
var censusRows = []censusRow{
	{"triple-stalled", tripleRow.cfg, []int{0, 0, 6}, tripleRow.cpu},
	{"pair", Config{Banks: 16, BankBusy: 4, CPUs: 2}, []int{1, 3}, []int{0, 1}},
	{"section", Config{Banks: 12, Sections: 3, BankBusy: 3}, []int{1, 5}, []int{0, 0}},
	{"section-consec", Config{Banks: 16, Sections: 4, BankBusy: 4, Mapping: ConsecutiveSections}, []int{1, 3}, []int{0, 0}},
	{"triple", tripleRow.cfg, tripleRow.dist, tripleRow.cpu},
	{"stream4", stream4Row.cfg, stream4Row.dist, stream4Row.cpu},
}

var (
	tripleRow  = censusRow{"triple", Config{Banks: 13, BankBusy: 4, CPUs: 3}, []int{1, 3, 5}, []int{0, 1, 2}}
	stream4Row = censusRow{"stream4", Config{Banks: 8, BankBusy: 2, CPUs: 4}, []int{1, 3, 5, 7}, []int{0, 1, 2, 3}}
)

// withPriority returns the row under priority rule pr.
func (r censusRow) withPriority(pr PriorityRule) censusRow {
	r.cfg.Priority = pr
	return r
}

// reversed returns the row with its distances in reverse order: the
// same memory under a second search geometry.
func (r censusRow) reversed() censusRow {
	d := make([]int, len(r.dist))
	for i, x := range r.dist {
		d[len(d)-1-i] = x
	}
	r.dist = d
	return r
}

// placements lists every placement of the row in sweep order, the
// last stream's start counting fastest.
func (r censusRow) placements() [][]StreamSpec {
	n, m := len(r.dist), r.cfg.Banks
	total := 1
	for i := 1; i < n; i++ {
		total *= m
	}
	out := make([][]StreamSpec, total)
	for k := range out {
		p := make([]StreamSpec, n)
		for i, rest := n-1, k; i >= 0; i-- {
			p[i] = StreamSpec{Distance: r.dist[i], CPU: r.cpu[i]}
			if i > 0 {
				p[i].Start, rest = rest%m, rest/m
			}
		}
		out[k] = p
	}
	return out
}

// freshCycle searches one placement on a fresh packed system.
func freshCycle(cfg Config, p []StreamSpec, budget int64) (Cycle, error) {
	sys := New(cfg)
	sys.SetKernel(KernelPacked)
	sys.AddStreams(p...)
	return sys.FindCycle(budget)
}

// reusedSearch resets sys, attaches p and searches it, returning the
// cycle and the clocks the search stepped.
func reusedSearch(sys *System, p []StreamSpec, budget int64) (Cycle, int64, error) {
	sys.Reset()
	sys.AddStreams(p...)
	start := sys.Clock()
	c, err := sys.FindCycle(budget)
	return c, sys.Clock() - start, err
}

// TestSharedSearchMatchesFresh searches every placement of one row per
// census family, under each priority rule, on a single reused packed
// System: in sweep order, shuffled, and in runs interleaved with the
// row's reversed distances, a second geometry, so the table clears and
// refills between runs. Every Cycle must DeepEqual a fresh system's,
// Lead included, and a seeded sample must pass the key-free oracle.
// Across the row, the reused searches must step fewer clocks than the
// fresh ones, or the table was never shared.
func TestSharedSearchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(19850826))
	for _, base := range censusRows {
		for _, pr := range []PriorityRule{FixedPriority, CyclicPriority, RoundRobinPerCPU} {
			row := base.withPriority(pr)
			t.Run(fmt.Sprintf("%s/%v", row.name, pr), func(t *testing.T) {
				type search struct {
					p    []StreamSpec
					want Cycle
				}
				fresh := func(r censusRow) []search {
					var out []search
					for _, p := range r.placements() {
						c, err := freshCycle(r.cfg, p, 1<<20)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, search{p, c})
					}
					return out
				}
				sweep, other := fresh(row), fresh(row.reversed())
				shuffled := append([]search(nil), sweep...)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				var interleaved []search
				for a, b := sweep, other; len(a)+len(b) > 0; a, b = b, a {
					n := min(len(a), 1+rng.Intn(8))
					interleaved, a = append(interleaved, a[:n]...), a[n:]
				}
				var freshClocks int64
				for _, s := range sweep {
					freshClocks += s.want.Lead + s.want.Length
				}
				for _, order := range []struct {
					name     string
					searches []search
				}{{"sweep", sweep}, {"shuffled", shuffled}, {"interleaved", interleaved}} {
					sys := New(row.cfg)
					sys.SetKernel(KernelPacked)
					var stepped int64
					for _, s := range order.searches {
						got, clocks, err := reusedSearch(sys, s.p, 1<<20)
						if err != nil {
							t.Fatalf("%s %v: %v", order.name, s.p, err)
						}
						if !reflect.DeepEqual(got, s.want) {
							t.Fatalf("%s %v: reused search gives\n%+v\na fresh one\n%+v", order.name, s.p, got, s.want)
						}
						if rng.Intn(16) == 0 {
							twin := New(row.cfg)
							twin.AddStreams(s.p...)
							checkCycleByRun(t, twin, got)
						}
						stepped += clocks
					}
					if order.name != "interleaved" && stepped >= freshClocks {
						t.Errorf("%s: reused searches stepped %d clocks, fresh ones %d; want fewer", order.name, stepped, freshClocks)
					}
				}
			})
		}
	}
}

// TestCycleOracleCensusFamilies runs the key-free oracle over a seeded
// sample of fresh searches of every census row under each priority
// rule; TestSharedSearchMatchesFresh samples reused ones.
func TestCycleOracleCensusFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(19850101))
	for _, base := range censusRows {
		for _, pr := range []PriorityRule{FixedPriority, CyclicPriority, RoundRobinPerCPU} {
			row := base.withPriority(pr)
			for _, p := range row.placements() {
				if rng.Intn(8) != 0 {
					continue
				}
				c, err := freshCycle(row.cfg, p, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				twin := New(row.cfg)
				twin.AddStreams(p...)
				checkCycleByRun(t, twin, c)
			}
		}
	}
}

// warmedSystem returns a packed system that has searched every
// placement of the row but the one at skip.
func warmedSystem(t *testing.T, row censusRow, skip int) *System {
	t.Helper()
	sys := New(row.cfg)
	sys.SetKernel(KernelPacked)
	for i, p := range row.placements() {
		if i == skip {
			continue
		}
		if _, _, err := reusedSearch(sys, p, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestSharedSearchBudget holds a search that stops on an earlier
// search's state to the fresh search's budget. With the fresh search
// stepping n = Lead + Length clocks and the shared hit at clock k, it
// must fail with ErrNoCycle at budgets k, k + 1, n − 1 and n, before
// the hit and between the hit and n, and succeed at n + 1. After a failed
// search the table must still give fresh answers, for the placement
// that failed and for another.
func TestSharedSearchBudget(t *testing.T) {
	row := stream4Row
	ps := row.placements()
	for target := len(ps) - 1; target >= 0; target-- {
		want, err := freshCycle(row.cfg, ps[target], 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		n := want.Lead + want.Length
		_, k, err := reusedSearch(warmedSystem(t, row, target), ps[target], 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if k+1 >= n {
			continue // no budget falls between the shared hit and n
		}
		for _, budget := range []int64{k, k + 1, n - 1, n, n + 1} {
			_, freshErr := freshCycle(row.cfg, ps[target], budget)
			sys := warmedSystem(t, row, target)
			got, _, err := reusedSearch(sys, ps[target], budget)
			if (freshErr == nil) != (err == nil) || (err != nil && !errors.Is(err, ErrNoCycle)) {
				t.Fatalf("placement %v, hit at clock %d of %d, budget %d: reused search %v, fresh %v", ps[target], k, n, budget, err, freshErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %d: reused search gives %+v, fresh %+v", budget, got, want)
			}
			for _, next := range [][]StreamSpec{ps[target], ps[0]} {
				after, _, err := reusedSearch(sys, next, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				if w, _ := freshCycle(row.cfg, next, 1<<20); !reflect.DeepEqual(after, w) {
					t.Fatalf("budget %d: a search of %v after gives %+v, fresh %+v", budget, next, after, w)
				}
			}
		}
		return
	}
	t.Fatal("no placement of the row stops on a shared state before its last clock")
}

// TestSharedSearchListened attaches a listener to a packed system whose
// table already holds every state of the placement searched next. The
// search must still emit events for every one of its Lead + Length
// clocks, return the fresh Cycle, and emit the event stream a listened
// scalar search of the placement emits, clock for clock from the
// search's start.
func TestSharedSearchListened(t *testing.T) {
	row := tripleRow
	ps := row.placements()
	sys := warmedSystem(t, row, -1)
	rec := &eventRecorder{}
	sys.SetListener(rec)
	p := ps[len(ps)/2]
	got, clocks, err := reusedSearch(sys, p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshCycle(row.cfg, p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("listened search gives %+v, fresh %+v", got, want)
	}
	seen := map[int64]bool{}
	for _, e := range rec.events {
		seen[e.Clock] = true
	}
	if n := want.Lead + want.Length; clocks != n || int64(len(seen)) != n {
		t.Fatalf("listened search stepped %d clocks with events at %d, want all %d", clocks, len(seen), n)
	}

	scalar := New(row.cfg)
	scalarRec := &eventRecorder{}
	scalar.SetListener(scalarRec)
	scalar.AddStreams(p...)
	if _, err := scalar.FindCycle(1 << 20); err != nil {
		t.Fatal(err)
	}
	start := sys.Clock() - clocks
	for i := range rec.events {
		rec.events[i].Clock -= start
	}
	if !reflect.DeepEqual(rec.events, scalarRec.events) {
		t.Fatalf("listened packed search emits\n%+v\na listened scalar search\n%+v", rec.events, scalarRec.events)
	}
}

// TestSharedSearchGeometry alternates, on one reused system, searches
// that differ only in the ports' CPUs, or only in a stride's multiple
// of m. Under RoundRobinPerCPU the CPUs order arbitration, so the
// first change must clear the table; the second is the same geometry
// and may share it. Every Cycle must DeepEqual a fresh system's.
func TestSharedSearchGeometry(t *testing.T) {
	row := tripleRow.withPriority(RoundRobinPerCPU)
	rows := []censusRow{row, row, row}
	rows[1].cpu = []int{1, 0, 2}
	rows[2].dist = []int{1, 3 + row.cfg.Banks, 5 - row.cfg.Banks}
	sys := New(row.cfg)
	sys.SetKernel(KernelPacked)
	for k, p := range row.placements() {
		r := rows[k%len(rows)]
		for i := range p {
			p[i].Distance, p[i].CPU = r.dist[i], r.cpu[i]
		}
		got, _, err := reusedSearch(sys, p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshCycle(row.cfg, p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: reused search gives\n%+v\na fresh one\n%+v", p, got, want)
		}
	}
}
