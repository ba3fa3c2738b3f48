package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/memsys"
	"ivm/internal/obs"
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

// runSweep re-executes the test binary as ivmsweep with args, fails the
// test unless it exits with code, and returns its stdout and stderr.
func runSweep(t *testing.T, code int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "IVMSWEEP_ARGS="+strings.Join(args, "\n"))
	cmd.Stdout, cmd.Stderr = &out, &errOut
	_ = cmd.Run() // the exit code is checked below
	if got := cmd.ProcessState.ExitCode(); got != code {
		t.Fatalf("ivmsweep %s exited %d, want %d:\n%s", strings.Join(args, " "), got, code, errOut.String())
	}
	return out.String(), errOut.String()
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
	_, stderr := runSweep(t, 0, "-triples", "-m", "7", "-nc", "2", "-cache-export", dir)

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
	if !strings.Contains(stderr, fmt.Sprintf("exported %d new cached states", len(want))) {
		t.Errorf("export line missing or wrong:\n%s", stderr)
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

// Valid sweeps exit 0 and write nothing to stderr: no flag-combination
// warning under the non-fixed priority rules, and none from README's
// -trace-out/-metrics-out command, which writes the worker timeline and
// an engine snapshot whose cycle-detect time is positive (the grid
// simulates, so a 0 means the counter went unfed). An impossible
// geometry is a usage error naming the flag set last: exit 2, not a
// panic from a sweep worker ("panic:" or a "goroutine N [" header; the
// usage text says "goroutines") and not an empty table.
func TestExitStatusAndStderr(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	trace := regexp.MustCompile(`(?m)^panic:|goroutine [0-9]+ \[`)
	for _, c := range []struct {
		code int
		args []string
	}{
		{0, []string{"-m", "8", "-nc", "2", "-priority", "cyclic"}},
		{0, []string{"-m", "12", "-s", "3", "-nc", "3", "-priority", "rr-cpu", "-mapping", "consecutive"}},
		{0, []string{"-m", "8", "-nc", "2", "-workers", "2", "-trace-out", tracePath, "-metrics-out", metricsPath}},
		{2, []string{"-m", "8", "-nc", "0"}},
		{2, []string{"-m", "0"}},
	} {
		_, stderr := runSweep(t, c.code, c.args...)
		if flag := c.args[len(c.args)-2]; c.code == 0 && stderr != "" ||
			c.code == 2 && (!strings.Contains(stderr, flag+" wants") || trace.MatchString(stderr)) {
			t.Errorf("ivmsweep %s: unexpected stderr:\n%s", strings.Join(c.args, " "), stderr)
		}
	}
	var timeline struct {
		TraceEvents []struct{ Args map[string]any }
	}
	var snap obs.Snapshot
	for path, v := range map[string]any{tracePath: &timeline, metricsPath: &snap} {
		if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, v) != nil {
			t.Fatalf("%s: %v\n%s", path, err, b)
		}
	}
	if !slices.ContainsFunc(timeline.TraceEvents, func(e struct{ Args map[string]any }) bool {
		return e.Args["name"] == "sweep workers"
	}) {
		t.Error(`-trace-out has no "sweep workers" process`)
	}
	if snap.Engine == nil || snap.Engine.CycleDetectNS <= 0 {
		t.Errorf("-metrics-out engine snapshot %+v has no positive cycle_detect_ns", snap.Engine)
	}
}

// What a worker's simulator has recorded depends on which placements
// the scheduler gave it; the answers, and the footer of a grid whose
// class leads simulate without the orbit cache, must not. The uncached
// (13, 4) triple grid simulates the sum of Lead + Length over its 76895
// placements as fresh searches find them.
func TestWorkerCountDeterminism(t *testing.T) {
	full := func(args ...string) string {
		out, _ := runSweep(t, 0, append(args, "-full")...)
		return out
	}
	table := func(out string) string { return out[:strings.Index(out, "\nengine counter")+1] }
	triples := []string{"-triples", "-m", "13", "-nc", "4"}
	cachedW1 := full(append(triples, "-workers", "1", "-cache", "0")...)
	freshW1 := full(append(triples, "-workers", "1", "-cache", "-1")...)
	stream4 := []string{"-m", "8", "-nc", "2", "-streams", "4"}
	s4W1 := full(append(stream4, "-workers", "1", "-cache", "0")...)
	for _, c := range []struct{ what, a, b string }{
		{"(13, 4) triple outputs at -workers 1 and 2", cachedW1, full(append(triples, "-workers", "2", "-cache", "0")...)},
		{"(13, 4) -cache -1 triple outputs at -workers 1 and 2", freshW1, full(append(triples, "-workers", "2", "-cache", "-1")...)},
		{"(13, 4) triple tables with and without the cache", table(cachedW1), table(freshW1)},
		{"(8, 2, 4) 4-stream outputs at -workers 1 and 2", s4W1, full(append(stream4, "-workers", "2", "-cache", "0")...)},
		{"(8, 2, 4) 4-stream tables with and without the cache", table(s4W1), table(full(append(stream4, "-workers", "0", "-cache", "-1")...))},
	} {
		if c.a != c.b || !strings.Contains(c.a, "\n") {
			t.Errorf("%s differ:\n%s\n----\n%s", c.what, c.a, c.b)
		}
	}
	if !regexp.MustCompile(`(?m)^steps simulated +12464128 *$`).MatchString(freshW1) {
		t.Errorf("(13, 4) triples -cache -1 simulated other clocks than fresh searches do:\n%s", freshW1)
	}
}

// Attaching the provenance recorder never changes the route a sweep
// takes: the (8, 2, 4) 4-stream run prints the same engine footer with
// and without -provenance, the class-copy hit rate 19.0 %, and the
// attribution table counts the grid's 83,764 orbits.
func TestProvenanceKeepsTheRoute(t *testing.T) {
	args := []string{"-m", "8", "-nc", "2", "-streams", "4", "-workers", "1"}
	plain, _ := runSweep(t, 0, args...)
	observed, _ := runSweep(t, 0, append(args, "-provenance")...)
	report := strings.Index(observed, "\n\nresult provenance")
	if report < 0 {
		t.Fatalf("-provenance printed no attribution table:\n%s", observed)
	}
	footer := func(out string) string { return out[strings.Index(out, "\nengine counter"):] }
	if footer(plain) != footer(observed[:report+1]) {
		t.Errorf("-provenance changed the engine footer:\n%s\n----\n%s", footer(plain), footer(observed[:report+1]))
	}
	if !regexp.MustCompile(`(?m)^stream4 hit rate +19\.0% \(20480/107520\) *$`).MatchString(plain) {
		t.Errorf("footer lacks the 19.0%% (20480/107520) stream4 hit rate:\n%s", footer(plain))
	}
	if !regexp.MustCompile(`(?m)^stream4 +107520 +0\.0% +19\.0% +81\.0% +83764 `).MatchString(observed[report:]) {
		t.Errorf("attribution table does not split 107520 placements 19.0/81.0 over 83764 orbits:\n%s", observed[report:])
	}
}

// A sweep serving -metrics-addr answers /healthz with "ok" and serves
// the pinned exposition lines in format 0.0.4 (internal/obs pins the
// bytes; this pins the served wire format end to end). Once the sweep
// has finished, progress counts every planned item as done, equal to
// the engine's unit counter and to the item latency histogram's count.
func TestLiveMetrics(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "IVMSWEEP_ARGS=-m\n13\n-nc\n4\n-metrics-addr\n127.0.0.1:0\n-metrics-linger\n30s")
	stderr, err := cmd.StderrPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // SIGTERM, then Kill; an error means it has exited
		_ = cmd.Process.Signal(syscall.SIGTERM)
		defer time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() }).Stop()
		_ = cmd.Wait()
	})
	// ivmsweep announces the server, then its linger once the sweep is done.
	var addr string
	finished := false
	for lines := bufio.NewScanner(stderr); !finished && lines.Scan(); {
		finished = strings.HasPrefix(lines.Text(), "metrics server lingering")
		if rest, ok := strings.CutPrefix(lines.Text(), "serving metrics on http://"); ok {
			addr, _, _ = strings.Cut(rest, "/")
		}
	}
	if addr == "" || !finished {
		t.Fatal("ivmsweep exited before it served metrics and finished its sweep")
	}
	get := func(path string) (body, contentType string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body) // a short body fails the checks on it
		return string(b), resp.Header.Get("Content-Type")
	}
	if health, _ := get("/healthz"); health != "ok\n" {
		t.Errorf("/healthz answered %q, want ok", health)
	}
	metrics, ctype := get("/metrics")
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type %q is not exposition format 0.0.4", ctype)
	}
	present, sample := map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(metrics, "\n") {
		name, value, _ := strings.Cut(line, " ")
		present[line], sample[name] = true, value
	}
	for _, line := range []string{"# TYPE ivm_up gauge", "ivm_up 1", "# TYPE ivm_sweep_cache_hits_total counter",
		"# TYPE ivm_sweep_analytic_hits_total counter", "# TYPE ivm_provenance_path_total counter",
		"# TYPE ivm_progress_items_done_total counter"} {
		if !present[line] {
			t.Errorf("/metrics lacks the pinned exposition line %q", line)
		}
	}
	done, planned := sample["ivm_progress_items_done_total"], sample["ivm_progress_items"]
	units, items := sample["ivm_sweep_units_total"], sample["ivm_sweep_item_duration_seconds_count"]
	if done == "" || done == "0" || done != planned || done != units || done != items {
		t.Errorf("progress drifted: done %q, planned %q, sweep units %q, item histogram count %q", done, planned, units, items)
	}
}
