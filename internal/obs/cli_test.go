package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"ivm/internal/sweep"
)

// serveMetricsAt runs ServeMetrics on a loopback port and returns the
// address it announced on stderr.
func serveMetricsAt(t *testing.T, eng *sweep.Engine, prog *Progress) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	closer, err := ServeMetrics("127.0.0.1:0", eng, prog)
	os.Stderr = stderr
	w.Close()
	announced, _ := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Skipf("cannot listen on loopback here: %v", err)
	}
	t.Cleanup(func() { closer.Close() })
	m := regexp.MustCompile(`^serving metrics on http://([^/]+)/metrics `).FindSubmatch(announced)
	if m == nil {
		t.Fatalf("ServeMetrics announced %q, want the scrape URL", announced)
	}
	return string(m[1])
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// jsonKeys returns the top-level keys of the /metrics.json document.
func jsonKeys(t *testing.T, addr string) map[string]json.RawMessage {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/metrics.json")), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestServeMetrics(t *testing.T) {
	eng := sweep.NewEngine(sweep.Options{Workers: 2})
	prog := NewProgress(eng)
	eng.Grid(8, 2)

	addr := serveMetricsAt(t, eng, prog)
	if prom := httpGet(t, "http://"+addr+"/metrics"); !strings.Contains(prom, "\nivm_sweep_units_total ") {
		t.Errorf("/metrics lacks ivm_sweep_units_total:\n%s", prom)
	}
	doc := jsonKeys(t, addr)
	for _, key := range []string{"engine", "item_latency", "progress"} {
		if string(doc[key]) == "" || string(doc[key]) == "null" {
			t.Errorf("/metrics.json lacks %q: %v", key, doc)
		}
	}

	// No engine and no progress: the liveness gauge alone.
	addr = serveMetricsAt(t, nil, nil)
	for _, line := range strings.Split(strings.TrimSpace(httpGet(t, "http://"+addr+"/metrics")), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "ivm_up ") {
			t.Errorf("engine-less /metrics serves %q beyond ivm_up", line)
		}
	}
	if doc := jsonKeys(t, addr); len(doc) != 0 {
		t.Errorf("engine-less /metrics.json = %v, want no keys", doc)
	}
}
