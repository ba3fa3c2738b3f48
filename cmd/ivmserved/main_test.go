package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs ivmserved when a test re-executes the binary with
// IVMSERVED_ARGS, one argument per line.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IVMSERVED_ARGS"); ok {
		os.Args = append([]string{"ivmserved"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// start re-executes the test binary as ivmserved with args and returns
// the command and the URL it announces; t.Cleanup stops it.
func start(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "IVMSERVED_ARGS="+strings.Join(args, "\n"))
	stderr, err := cmd.StderrPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stop(cmd) }) // an error means the test stopped it
	for lines := bufio.NewScanner(stderr); lines.Scan(); {
		if addr, ok := strings.CutPrefix(lines.Text(), "ivmserved listening on "); ok {
			return cmd, addr
		}
	}
	t.Fatal("ivmserved exited without announcing its address")
	return nil, ""
}

// stop sends SIGTERM, then Kill ten seconds later, and waits.
func stop(cmd *exec.Cmd) error {
	_ = cmd.Process.Signal(syscall.SIGTERM) // an error means it has exited
	defer time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() }).Stop()
	return cmd.Wait()
}

// TestServeAndWarmRestart drives the ivmserved binary where
// internal/serve's handler tests cannot reach: its flags and shutdown.
// With -cache-dir, -access-log and -slow-ms 0 it answers the
// unique-barrier pair (m=16 nc=4 strides 1,2; eq-29 proves b_eff = 3/2)
// with the pinned bytes, logs it with the analytic path, and simulates
// a 4-stream spec outside the analytic gate. On SIGTERM it syncs the
// store and exits 0. A second instance on the same -cache-dir answers
// the 4-stream spec from its cache, having seeded the whole store
// without a miss or a wholesale shard drop (docs/CACHING.md).
func TestServeAndWarmRestart(t *testing.T) {
	const (
		pair = `{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`
		want = `{"family":"pair","b_eff":"3/2","num":3,"den":2,"path":"analytic","theorem":"eq-29"}` + "\n"
		four = `{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},{"d":3,"b":5,"cpu":1},{"d":5,"b":2,"cpu":0},{"d":7,"b":9,"cpu":1}]}`
	)
	read := func(resp *http.Response, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body) // a short body fails the checks on it
		return string(b)
	}
	post := func(url, body string) string {
		return read(http.Post(url+"/v1/bandwidth", "application/json", strings.NewReader(body)))
	}
	dir := t.TempDir()
	cacheDir, accessLog := filepath.Join(dir, "cache"), filepath.Join(dir, "access.log")
	first, url := start(t, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir, "-access-log", accessLog, "-slow-ms", "0")

	if got := post(url, pair); got != want {
		t.Errorf("/v1/bandwidth drifted:\n got %q\nwant %q", got, want)
	}
	// The access log line lands a beat after the response.
	var logged []byte
	for deadline := time.Now().Add(10 * time.Second); len(logged) == 0 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		logged, _ = os.ReadFile(accessLog) // absent until the first line
	}
	if !strings.Contains(string(logged), `"path":"analytic"`) {
		t.Errorf("access log %q lacks the pair's analytic path", logged)
	}
	if cold := post(url, four); !strings.Contains(cold, `"path":"sim-`) {
		t.Fatalf("4-stream spec was not simulated on a fresh store: %s", cold)
	}
	if err := stop(first); err != nil {
		t.Fatalf("ivmserved exited with %v on SIGTERM", err)
	}

	_, url = start(t, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
	if warm := post(url, four); !strings.Contains(warm, `"path":"cache"`) {
		t.Errorf("restarted ivmserved did not answer the stored 4-stream orbit from cache: %s", warm)
	}
	metrics := strings.Split(read(http.Get(url+"/metrics")), "\n")
	for _, line := range []string{"ivm_sweep_cache_misses_total 0", "ivm_sweep_cache_evicted_total 0"} {
		if !slices.Contains(metrics, line) {
			t.Errorf("restarted ivmserved /metrics lacks %q", line)
		}
	}
}
