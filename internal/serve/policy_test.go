package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// Table-driven handler coverage for the policy fields: known policy
// strings are honoured end to end, unknown strings are a 400 that
// names the offending field (never a silent default), the retired
// consecutive flag is refused as an unknown field and parameter, and
// the sweep endpoint parses the matching query parameters.

func TestServeBandwidthPolicies(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name       string
		body       string
		status     int
		wantField  string // substring the error must carry on non-200s
		wantFamily string // family expected on 200s
		wantPath   string // path expected on 200s ("" = any)
	}{
		{
			name:       "default_fixed",
			body:       pinnedPairSpec,
			status:     http.StatusOK,
			wantFamily: "pair",
			wantPath:   "analytic",
		},
		{
			name:       "explicit_fixed",
			body:       `{"m":16,"nc":4,"priority":"fixed","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
			status:     http.StatusOK,
			wantFamily: "pair",
			wantPath:   "analytic",
		},
		{
			name:       "cyclic_priority",
			body:       `{"m":16,"nc":4,"priority":"cyclic","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
			status:     http.StatusOK,
			wantFamily: "pair-cyc",
			wantPath:   "sim-packed", // the analytic gate must decline
		},
		{
			name:       "rr_cpu_priority",
			body:       `{"m":16,"nc":4,"priority":"rr-cpu","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
			status:     http.StatusOK,
			wantFamily: "pair-rrcpu",
			wantPath:   "sim-packed",
		},
		{
			name:       "consecutive_mapping_string",
			body:       `{"m":12,"s":3,"nc":3,"mapping":"consecutive","streams":[{"d":1,"b":0,"cpu":0},{"d":1,"b":1,"cpu":0}]}`,
			status:     http.StatusOK,
			wantFamily: "section-consec",
		},
		{
			name:      "consecutive_flag_and_matching_mapping",
			body:      `{"m":12,"s":3,"nc":3,"consecutive":true,"mapping":"consecutive","streams":[{"d":1,"b":0,"cpu":0},{"d":1,"b":1,"cpu":0}]}`,
			status:    http.StatusBadRequest,
			wantField: `"consecutive"`,
		},
		{
			name:      "unknown_priority",
			body:      `{"m":16,"nc":4,"priority":"lifo","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
			status:    http.StatusBadRequest,
			wantField: `"priority"`,
		},
		{
			name:      "unknown_mapping",
			body:      `{"m":12,"s":3,"nc":3,"mapping":"skewed","streams":[{"d":1,"b":0,"cpu":0},{"d":1,"b":1,"cpu":0}]}`,
			status:    http.StatusBadRequest,
			wantField: `"mapping"`,
		},
		{
			name:      "consecutive_flag_contradicts_mapping",
			body:      `{"m":12,"s":3,"nc":3,"consecutive":true,"mapping":"cyclic","streams":[{"d":1,"b":0,"cpu":0},{"d":1,"b":1,"cpu":0}]}`,
			status:    http.StatusBadRequest,
			wantField: `"consecutive"`,
		},
		{
			name:      "consecutive_mapping_needs_sections",
			body:      `{"m":16,"nc":4,"mapping":"consecutive","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`,
			status:    http.StatusBadRequest,
			wantField: "sections",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/bandwidth", tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, body)
			}
			if tc.status != http.StatusOK {
				var e map[string]string
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatalf("%v in %s", err, body)
				}
				if !strings.Contains(e["error"], tc.wantField) {
					t.Fatalf("error %q does not name %s", e["error"], tc.wantField)
				}
				return
			}
			var res ResultJSON
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("%v in %s", err, body)
			}
			if res.Family != tc.wantFamily {
				t.Fatalf("family %q, want %q", res.Family, tc.wantFamily)
			}
			if tc.wantPath != "" && res.Path != tc.wantPath {
				t.Fatalf("path %q, want %q", res.Path, tc.wantPath)
			}
		})
	}
}

// TestServeBatchRejectsUnknownPolicy pins that a bad policy string in
// any batch entry fails the whole batch with the spec index and field.
func TestServeBatchRejectsUnknownPolicy(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"specs":[` + pinnedPairSpec + `,{"m":16,"nc":4,"priority":"lru","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}]}`
	status, resp := postJSON(t, ts.URL+"/v1/batch", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, resp)
	}
	var e map[string]string
	if err := json.Unmarshal(resp, &e); err != nil {
		t.Fatalf("%v in %s", err, resp)
	}
	if !strings.Contains(e["error"], "spec 1") || !strings.Contains(e["error"], `"priority"`) {
		t.Fatalf("error %q does not locate spec 1's priority field", e["error"])
	}
}

// TestServeSweepPolicyParams covers the /v1/sweep query-parameter
// surface for priority and mapping.
func TestServeSweepPolicyParams(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	get := func(t *testing.T, query string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sweep?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	t.Run("cyclic_priority_rows", func(t *testing.T) {
		status, body := get(t, "m=8&nc=2&d1=1&d2=1&priority=cyclic")
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		first := strings.SplitN(string(body), "\n", 2)[0]
		var row SweepRowJSON
		if err := json.Unmarshal([]byte(first), &row); err != nil {
			t.Fatalf("%v in %q", err, first)
		}
		if row.Family != "pair-cyc" {
			t.Fatalf("family %q, want pair-cyc", row.Family)
		}
	})
	wantError := func(t *testing.T, status int, body []byte, field string) {
		t.Helper()
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%v in %s", err, body)
		}
		if !strings.Contains(e["error"], field) {
			t.Fatalf("error %q does not name %s", e["error"], field)
		}
	}
	t.Run("unknown_priority", func(t *testing.T) {
		status, body := get(t, "m=8&nc=2&d1=1&d2=1&priority=nope")
		wantError(t, status, body, `"priority"`)
	})
	t.Run("unknown_mapping", func(t *testing.T) {
		status, body := get(t, "m=8&s=2&nc=2&d1=1&d2=1&mapping=diag")
		wantError(t, status, body, `"mapping"`)
	})
	t.Run("consecutive_contradicts_mapping", func(t *testing.T) {
		status, body := get(t, "m=8&s=2&nc=2&d1=1&d2=1&consecutive=1&mapping=cyclic")
		wantError(t, status, body, `"consecutive"`)
	})
	t.Run("mapping_consecutive", func(t *testing.T) {
		status, body := get(t, "m=8&s=2&nc=2&d1=1&d2=1&mapping=consecutive")
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		first := strings.SplitN(string(body), "\n", 2)[0]
		var row SweepRowJSON
		if err := json.Unmarshal([]byte(first), &row); err != nil {
			t.Fatalf("%v in %q", err, first)
		}
		if row.Family != "section-consec" {
			t.Fatalf("family %q, want section-consec", row.Family)
		}
	})
}
