package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ivm/internal/cachestore"
	"ivm/internal/memsys"
	"ivm/internal/sweep"
)

// TestMain runs the command itself, with the newline-separated
// arguments in IVMSWEEP_ARGS, when a test re-executes the test binary
// with that variable set; otherwise it runs the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IVMSWEEP_ARGS"); ok {
		os.Args = append([]string{"ivmsweep"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestValidateSweepFlags(t *testing.T) {
	good := []sweepFlags{
		{},              // default pair sweep
		{secs: 4},       // section sweep
		{triples: true}, // triple grid
		{triples: true, census: true},
		{streams: 2},
		{streams: 4},
		{priority: memsys.CyclicPriority},
		{priority: memsys.RoundRobinPerCPU, secs: 4},
		{secs: 4, mapping: memsys.ConsecutiveSections},
		{secs: 4, mapping: memsys.ConsecutiveSections, priority: memsys.CyclicPriority},
	}
	for _, f := range good {
		f.m, f.nc = 16, 4 // a valid geometry: these cases vary the selectors
		if err := validateSweepFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
	type badCase struct {
		f    sweepFlags
		want string
	}
	bad := []badCase{
		{sweepFlags{streams: 1}, "-streams"},
		{sweepFlags{streams: -3}, "-streams"},
		{sweepFlags{census: true}, "-triple-census"},
		{sweepFlags{triples: true, secs: 4}, "pick one"},
		{sweepFlags{streams: 3, triples: true}, "pick one"},
		{sweepFlags{streams: 3, secs: 4}, "pick one"},
		{sweepFlags{mapping: memsys.ConsecutiveSections}, "-s"},
		{sweepFlags{priority: memsys.CyclicPriority, triples: true}, "pair and section families"},
		{sweepFlags{priority: memsys.RoundRobinPerCPU, streams: 3}, "pair and section families"},
	}
	for i := range bad {
		bad[i].f.m, bad[i].f.nc = 16, 4
	}
	bad = append(bad,
		badCase{sweepFlags{m: 0, nc: 4}, "-m"},
		badCase{sweepFlags{m: -4, nc: 4}, "-m"},
		badCase{sweepFlags{m: 8, nc: 0}, "-nc"},
		badCase{sweepFlags{m: 8, nc: -1}, "-nc"},
		badCase{sweepFlags{m: 8, nc: 2, secs: 3}, "-s"},
		badCase{sweepFlags{m: 8, nc: 2, secs: -2}, "-s"},
	)
	for _, c := range bad {
		err := validateSweepFlags(c.f)
		if err == nil {
			t.Errorf("%+v accepted", c.f)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %q does not mention %q", c.f, err, c.want)
		}
	}
}

// -cache-export attaches the store as the engine's CacheSink, so it
// holds every orbit the sweep simulated, although the triple grid's
// class leads never fill the in-RAM cache: as many records as the
// per-placement route caches, the same ones, and a seeded engine
// answers their placements from the cache.
func TestCacheExportStoresEverySimulatedOrbit(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "IVMSWEEP_ARGS="+strings.Join([]string{
		"-triples", "-m", "7", "-nc", "2", "-cache-export", dir}, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ivmsweep: %v\n%s", err, out)
	}

	var specs []sweep.ConfigSpec
	for _, r := range sweep.NewEngine(sweep.Options{CacheSize: -1}).TripleGrid(7, 2) {
		specs = append(specs, sweep.TripleSpec(7, 2, r.D))
	}
	batch := sweep.Placements(specs)
	perPlacement := sweep.NewEngine(sweep.Options{Workers: 1})
	if _, err := perPlacement.ResolveBatch(batch); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, rec := range perPlacement.CacheRecords() {
		want[fmt.Sprint(rec)] = true
	}

	store, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	records := store.Records()
	if len(records) != len(want) {
		t.Fatalf("store holds %d records, the per-placement route caches %d orbits", len(records), len(want))
	}
	if !strings.Contains(string(out), fmt.Sprintf("exported %d new cached states", len(want))) {
		t.Errorf("export line missing or wrong:\n%s", out)
	}
	seeded := sweep.NewEngine(sweep.Options{Workers: 1})
	for _, rec := range records {
		if !want[fmt.Sprint(rec)] {
			t.Fatalf("store record %+v is not an orbit of the per-placement route", rec)
		}
		if err := seeded.SeedCache(rec); err != nil {
			t.Fatal(err)
		}
	}
	spec := batch[len(batch)/2]
	res, err := seeded.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold := sweep.SpecGrid([]sweep.ConfigSpec{spec})[0].SimMin; res.Path != sweep.PathCache || !res.BW.Equal(cold) {
		t.Fatalf("seeded engine answered %+v with %s on %v, cold %s", spec, res.BW, res.Path, cold)
	}
}
