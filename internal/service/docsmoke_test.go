package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docSmokeCase is one executable example extracted from docs/API.md.
type docSmokeCase struct {
	method, path string
	wantStatus   int
	body         string // POST request body (the marker's adjacent json block)
	line         int
}

// smokeMarker matches the machine-checkable example markers:
// <!-- smoke: METHOD PATH STATUS -->.
var smokeMarker = regexp.MustCompile(`^<!-- smoke: (GET|POST|DELETE) (\S+) (\d{3}) -->$`)

// parseDocSmoke extracts the markers (and, for POSTs, the first fenced
// json block after each marker) from the API reference.
func parseDocSmoke(t *testing.T, doc string) []docSmokeCase {
	t.Helper()
	lines := strings.Split(doc, "\n")
	var cases []docSmokeCase
	for i := 0; i < len(lines); i++ {
		m := smokeMarker.FindStringSubmatch(strings.TrimSpace(lines[i]))
		if m == nil {
			continue
		}
		status, err := strconv.Atoi(m[3])
		if err != nil {
			t.Fatalf("API.md line %d: bad status %q", i+1, m[3])
		}
		c := docSmokeCase{method: m[1], path: m[2], wantStatus: status, line: i + 1}
		if c.method == http.MethodPost {
			body, ok := nextJSONBlock(lines, i+1)
			if !ok {
				t.Fatalf("API.md line %d: POST marker without a following ```json block", i+1)
			}
			if !json.Valid([]byte(body)) {
				t.Fatalf("API.md line %d: example body is not valid JSON:\n%s", i+1, body)
			}
			c.body = body
		}
		cases = append(cases, c)
	}
	if len(cases) == 0 {
		t.Fatal("API.md carries no smoke markers")
	}
	return cases
}

// nextJSONBlock returns the contents of the first ```json fence at or
// after line start.
func nextJSONBlock(lines []string, start int) (string, bool) {
	for i := start; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```json" {
			continue
		}
		var body []string
		for j := i + 1; j < len(lines); j++ {
			if strings.TrimSpace(lines[j]) == "```" {
				return strings.Join(body, "\n"), true
			}
			body = append(body, lines[j])
		}
		return "", false
	}
	return "", false
}

// TestAPIDocExamples replays every documented request against a live
// service, in document order, asserting the documented status codes.
// {id} in paths resolves to the most recently submitted job's id;
// artifact requests wait for that job to finish first (as the document
// instructs readers to).
func TestAPIDocExamples(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	cases := parseDocSmoke(t, string(doc))

	_, ts := newTestService(t, Options{})
	lastID := ""
	for _, c := range cases {
		path := c.path
		if strings.Contains(path, "{id}") {
			if lastID == "" {
				t.Fatalf("API.md line %d: {id} path before any successful submission", c.line)
			}
			path = strings.ReplaceAll(path, "{id}", lastID)
			// Artifact reads and the documented DELETE example both
			// address a finished job (the document says so), so the
			// replay waits for the terminal state first — that keeps the
			// DELETE example deterministic (409: nothing left to cancel).
			if strings.Contains(path, "/artifacts/") || c.method == http.MethodDelete {
				waitDone(t, ts.URL, lastID)
			}
		}
		var (
			resp *http.Response
			body []byte
		)
		switch c.method {
		case http.MethodPost:
			resp, body = postJSON(t, ts.URL+path, c.body)
		case http.MethodDelete:
			req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(r.Body)
			r.Body.Close()
			resp = r
		default:
			resp, body = getBody(t, ts.URL+path)
		}
		if resp.StatusCode != c.wantStatus {
			t.Errorf("API.md line %d: %s %s = %d, want %d\nbody: %.300s",
				c.line, c.method, c.path, resp.StatusCode, c.wantStatus, body)
			continue
		}
		if c.method == http.MethodPost && resp.StatusCode < 300 {
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Errorf("API.md line %d: submit response not a job status: %v", c.line, err)
				continue
			}
			lastID = st.ID
		}
	}
}

// TestAPIDocCoversEveryRoute pins the documented surface to the routed
// one: every pattern the service registers must appear in API.md, so
// adding an endpoint without documenting it fails CI.
func TestAPIDocCoversEveryRoute(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{
		"POST /v1/runs",
		"POST /v1/sweeps",
		"GET /v1/jobs",
		"GET /v1/jobs/{id}",
		"DELETE /v1/jobs/{id}",
		"GET /v1/jobs/{id}/events",
		"GET /v1/jobs/{id}/artifacts/{name}",
		"GET /healthz",
		"GET /metrics",
	} {
		if !strings.Contains(string(doc), route) {
			t.Errorf("route %q undocumented in docs/API.md", route)
		}
	}
	// The documented artifact names must match the served set.
	for _, name := range []string{"results.json", "results.csv", "report.md", "trace.jsonl"} {
		if !strings.Contains(string(doc), name) {
			t.Errorf("artifact %q undocumented in docs/API.md", name)
		}
	}
	// Every exported metric must be documented.
	for _, name := range []string{
		"bulktx_jobs_submitted_total", "bulktx_jobs_deduped_total",
		"bulktx_jobs_rejected_total", "bulktx_jobs_done_total",
		"bulktx_jobs_failed_total", "bulktx_jobs_canceled_total",
		"bulktx_jobs_recovered_total", "bulktx_jobs_queued",
		"bulktx_jobs_running", "bulktx_cells_simulated_total",
		"bulktx_cells_cached_total", "bulktx_cells_failed_total",
		"bulktx_cache_write_errors_total",
		"bulktx_journal_write_errors_total", "bulktx_cells_per_sec",
		"bulktx_result_cache_bytes", "bulktx_result_cache_entries",
		"bulktx_result_cache_evictions_total", "bulktx_build_info",
		"bulktx_http_request_duration_seconds",
		"bulktx_job_queue_wait_seconds",
		"bulktx_job_execution_seconds",
		"bulktx_cell_simulation_seconds",
	} {
		if !strings.Contains(string(doc), name) {
			t.Errorf("metric %q undocumented in docs/API.md", name)
		}
	}
}
