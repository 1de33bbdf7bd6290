package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bulktx/internal/sweep"
	"bulktx/internal/telemetry"
)

// sweepBody is a fast 2-axis grid used across the tests: 2 models x 2
// sender counts = 4 cells (one burst, one rep each; the sensor model
// collapses the burst axis anyway).
const sweepBody = `{
	"models": ["sensor", "dual"],
	"senders": [5, 10],
	"bursts": [10],
	"runs": 1,
	"duration_s": 30,
	"rate_bps": 2000
}`

// runBody is a fast single-scenario submission.
const runBody = `{"model": "sensor", "senders": 5, "duration_s": 30, "rate_bps": 2000}`

// runSpec is runBody at the given seed: a distinct job per seed.
func runSpec(seed int) string {
	return fmt.Sprintf(`{"model": "sensor", "senders": 5, "duration_s": 30, "rate_bps": 2000, "seed": %d}`, seed)
}

// testClient bounds every submission, so a service that blocks while
// admitting a job fails the test instead of hanging it.
var testClient = &http.Client{Timeout: 30 * time.Second}

// setGate installs the executor test gate under the store lock (the
// executors read it the same way).
func setGate(svc *Server, gate func(*job)) {
	svc.mu.Lock()
	svc.testGate = gate
	svc.mu.Unlock()
}

func newTestService(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx) //nolint:errcheck // best-effort teardown
	})
	return svc, ts
}

// postJSON submits body and decodes the JobStatus (or error) response.
func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := testClient.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func submit(t *testing.T, url, body string, wantStatus int) JobStatus {
	t.Helper()
	resp, data := postJSON(t, url, body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d; body %s", url, resp.StatusCode, wantStatus, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("bad status body %s: %v", data, err)
	}
	return st
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitDone polls the job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := getBody(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job = %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if jobState(st.State).terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

// metricValue extracts one metric's value from the /metrics exposition.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, data := getBody(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func TestSubmitPollArtifactHappyPath(t *testing.T) {
	_, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)
	if st.ID == "" || st.Kind != "sweep" {
		t.Fatalf("bad submit status %+v", st)
	}
	done := waitDone(t, ts.URL, st.ID)
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.CellsDone != done.Cells || done.Cells == 0 {
		t.Errorf("cells %d/%d", done.CellsDone, done.Cells)
	}

	// results.csv must be byte-identical to the sweep engine's own
	// export of the same spec (the bcp-sweep CSV path).
	resp, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/results.csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results.csv = %d: %s", resp.StatusCode, got)
	}
	spec, err := sweep.ParseSpecJSON([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&sweep.Pool{Cache: sweep.NewCache()}).RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteCSV(&want, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("results.csv diverges from the sweep engine's export:\n got: %s\nwant: %s", got, want.Bytes())
	}

	resp, data := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/results.json")
	if resp.StatusCode != http.StatusOK || !json.Valid(data) {
		t.Errorf("results.json = %d, valid JSON %v", resp.StatusCode, json.Valid(data))
	}
	resp, data = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/report.md")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "## Goodput") {
		t.Errorf("report.md = %d: %.80s", resp.StatusCode, data)
	}
	// Sweep jobs carry no trace artifact.
	resp, _ = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/trace.jsonl")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("sweep trace.jsonl = %d, want 404", resp.StatusCode)
	}
	// The job list includes the job.
	resp, data = getBody(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), st.ID) {
		t.Errorf("job list = %d: %s", resp.StatusCode, data)
	}
}

func TestRunJobTraceArtifact(t *testing.T) {
	_, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	if st.Kind != "run" || st.Cells != 1 {
		t.Fatalf("bad run status %+v", st)
	}
	if done := waitDone(t, ts.URL, st.ID); done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	resp, data := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/trace.jsonl")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace.jsonl = %d: %s", resp.StatusCode, data)
	}
	first := data[:bytes.IndexByte(data, '\n')]
	var rec struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(first, &rec); err != nil || rec.Type != "node-energy" {
		t.Errorf("first trace record %s (err %v)", first, err)
	}
}

// TestInfiniteEnergyJobCompletes checks that a run too short to
// deliver anything, whose J/Kbit is +Inf, still completes with its CSV
// and markdown artifacts.
func TestInfiniteEnergyJobCompletes(t *testing.T) {
	_, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/runs",
		`{"model": "sensor", "senders": 5, "duration_s": 0.01, "rate_bps": 2000}`, http.StatusAccepted)
	if done := waitDone(t, ts.URL, st.ID); done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	resp, data := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/results.csv")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "+Inf") {
		t.Errorf("results.csv = %d: %s", resp.StatusCode, data)
	}
	resp, data = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/report.md")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "+Inf") {
		t.Errorf("report.md = %d: %s", resp.StatusCode, data)
	}
}

// results.json of a +Inf J/Kbit point is valid JSON carrying null.
func TestInfiniteEnergyResultsJSONIsNull(t *testing.T) {
	_, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/runs",
		`{"model": "sensor", "senders": 5, "duration_s": 0.01, "rate_bps": 2000}`, http.StatusAccepted)
	if done := waitDone(t, ts.URL, st.ID); done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	resp, data := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/results.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results.json = %d: %s", resp.StatusCode, data)
	}
	var doc struct {
		Cells []map[string]any `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("results.json is not valid JSON: %v\n%s", err, data)
	}
	if len(doc.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(doc.Cells))
	}
	if v, ok := doc.Cells[0]["norm_energy_j_per_kbit"]; !ok || v != nil {
		t.Errorf("norm_energy_j_per_kbit = %v (present %v), want null", v, ok)
	}
}

func TestIdenticalSpecDedupe(t *testing.T) {
	_, ts := newTestService(t, Options{})
	first := submit(t, ts.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)
	waitDone(t, ts.URL, first.ID)
	simulated := metricValue(t, ts.URL, "bulktx_cells_simulated_total")

	// Same spec, different JSON spelling: answered by the first job.
	respelled := strings.ReplaceAll(strings.ReplaceAll(sweepBody, "\n", " "), "\t", "")
	second := submit(t, ts.URL+"/v1/sweeps", respelled, http.StatusOK)
	if second.ID != first.ID {
		t.Errorf("dedupe returned job %s, want %s", second.ID, first.ID)
	}
	if !second.Deduped {
		t.Error("deduped submission not flagged")
	}
	if v := metricValue(t, ts.URL, "bulktx_jobs_deduped_total"); v != 1 {
		t.Errorf("jobs_deduped_total = %g, want 1", v)
	}
	if v := metricValue(t, ts.URL, "bulktx_cells_simulated_total"); v != simulated {
		t.Errorf("dedupe re-simulated: %g -> %g", simulated, v)
	}
	if v := metricValue(t, ts.URL, "bulktx_jobs_submitted_total"); v != 1 {
		t.Errorf("jobs_submitted_total = %g, want 1", v)
	}

	// A different spec is a different job.
	third := submit(t, ts.URL+"/v1/sweeps",
		strings.Replace(sweepBody, `"runs": 1`, `"seed": 7`, 1), http.StatusAccepted)
	if third.ID == first.ID {
		t.Error("different spec shares the first job's id")
	}
}

func TestMalformedSpecs(t *testing.T) {
	_, ts := newTestService(t, Options{})
	cases := []struct {
		name, path, body, wantField string
	}{
		{"syntax", "/v1/sweeps", `{not json`, ""},
		{"unknown-field", "/v1/sweeps", `{"bogus": 1}`, ""},
		{"bad-model", "/v1/sweeps", `{"models": ["zigbee"]}`, "models"},
		{"bad-case", "/v1/runs", `{"case": "teleport"}`, "case"},
		{"bad-topology", "/v1/runs", `{"topology": "torus"}`, "topologies"},
		{"bad-senders", "/v1/runs", `{"senders": 99}`, "Senders"},
		{"bad-loss", "/v1/runs", `{"sensor_loss": 2.0}`, "SensorLoss"},
		{"too-many-clusters", "/v1/runs", `{"topology":"clustered","clusters":50}`, "Clusters"},
		{"negative-linger", "/v1/sweeps", `{"post_burst_linger_ms": -5}`, "PostBurstLinger"},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
			continue
		}
		var e apiError
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: bad error body %s", tc.name, data)
			continue
		}
		if e.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q (error %q)", tc.name, e.Field, tc.wantField, e.Error)
		}
	}
	// Grids past the cell limit are rejected up front, before the grid
	// is compiled: a tiny body declaring a million (or, overflowing a
	// naive product, 2^63) cells must not allocate its job list. The
	// million-cell body runs first so a compile-then-count server fails
	// on the allocation bound instead of exhausting memory on the next.
	_, ts2 := newTestService(t, Options{MaxCells: 10})
	for _, body := range []string{
		`{"senders": [5,6,7,8,9,10], "runs": 2}`,
		`{"runs":1000000}`,
		`{"runs":4611686018427387904,"models":["sensor","wifi"]}`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, data := postJSON(t, ts2.URL+"/v1/sweeps", body)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-limit grid %s: %d (%s)", body, resp.StatusCode, data)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Fatalf("over-limit grid %s: allocated %d MB before the 413", body, grew>>20)
		}
	}
}

// TestQueueFullBackpressure drives a 429 storm round trip: with the
// executor held and the queue full, every further distinct spec gets
// 429 with a Retry-After; canceling the queued jobs reopens their
// slots at once, so as many new specs are accepted right away.
func TestQueueFullBackpressure(t *testing.T) {
	const limit = 2
	svc, ts := newTestService(t, Options{QueueLimit: limit, JobWorkers: 1})
	entered := make(chan string, 8)
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	setGate(svc, func(j *job) {
		entered <- j.id
		<-release
	})

	a := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	select {
	case <-entered: // the executor holds job A; the queue is empty again
	case <-time.After(10 * time.Second):
		t.Fatal("executor never picked job A")
	}
	var queued []JobStatus
	for i := range limit {
		queued = append(queued, submit(t, ts.URL+"/v1/runs", runSpec(100+i), http.StatusAccepted))
	}

	// Queue now full: every further distinct spec bounces.
	const storm = 3
	for i := range storm {
		resp, data := postJSON(t, ts.URL+"/v1/runs", runSpec(200+i))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("full queue = %d (%s), want 429", resp.StatusCode, data)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Errorf("429 Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
		}
		if want := fmt.Sprintf("limit %d", limit); !strings.Contains(string(data), want) {
			t.Errorf("429 body %s does not name the %s", data, want)
		}
	}
	// A duplicate of a queued job still dedupes instead of bouncing.
	dup := submit(t, ts.URL+"/v1/runs", runSpec(100), http.StatusOK)
	if dup.ID != queued[0].ID || !dup.Deduped {
		t.Errorf("duplicate during backpressure: %+v", dup)
	}
	if v := metricValue(t, ts.URL, "bulktx_jobs_rejected_total"); v != storm {
		t.Errorf("jobs_rejected_total = %g, want %d", v, storm)
	}

	// Canceling the queued jobs frees their slots at once, while the
	// executor is still held.
	for _, q := range queued {
		if resp, body := del(t, ts.URL, q.ID); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("DELETE queued job = %d: %s", resp.StatusCode, body)
		}
	}
	var h struct {
		JobsQueued int `json:"jobs_queued"`
	}
	if _, data := getBody(t, ts.URL+"/healthz"); json.Unmarshal(data, &h) != nil || h.JobsQueued != 0 {
		t.Errorf("healthz after canceling every queued job: %s, want jobs_queued 0", data)
	}
	if v := metricValue(t, ts.URL, "bulktx_jobs_queued"); v != 0 {
		t.Errorf("bulktx_jobs_queued = %g after canceling every queued job, want 0", v)
	}
	accepted := []JobStatus{a}
	for i := range limit {
		accepted = append(accepted, submit(t, ts.URL+"/v1/runs", runSpec(300+i), http.StatusAccepted))
	}

	unblock()
	for _, j := range accepted {
		if st := waitDone(t, ts.URL, j.ID); st.State != string(jobDone) {
			t.Errorf("job %s ended %s", j.ID, st.State)
		}
	}
	for _, q := range queued {
		if st := waitDone(t, ts.URL, q.ID); st.State != string(jobCanceled) || st.CellsDone != 0 {
			t.Errorf("canceled queued job %s ended %s with %d cells", q.ID, st.State, st.CellsDone)
		}
	}
}

func TestArtifactBeforeCompletion(t *testing.T) {
	svc, ts := newTestService(t, Options{})
	release := make(chan struct{})
	entered := make(chan string, 1)
	setGate(svc, func(j *job) { entered <- j.id; <-release })
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	<-entered
	resp, data := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/results.csv")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("artifact of running job = %d (%s), want 409", resp.StatusCode, data)
	}
	resp, _ = getBody(t, ts.URL+"/v1/jobs/nosuchjob")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
	close(release)
	waitDone(t, ts.URL, st.ID)
}

// sseEvent is one parsed SSE record.
type sseEvent struct {
	id   int
	name string
	data map[string]any
}

// readSSE parses a text/event-stream body until EOF.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// openEvents subscribes to a job's event stream; the history so far
// has been written when it returns. The body closes when the test
// ends, so a failed test cannot leave its handler parked behind the
// server's teardown.
func openEvents(t *testing.T, base, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type %q", ct)
	}
	return resp
}

// checkEventOrdering asserts a stream's history contract: ids
// contiguous from 1, queued first, wantTerminal last, and in between
// started plus one cell event per resolved cell, each carrying its
// running done count. wantCells is the number of cell events; -1
// accepts any number (a job canceled mid-sweep), and 0 means the job
// never started, so queued and the terminal event are all there is.
func checkEventOrdering(t *testing.T, events []sseEvent, wantTerminal string, wantCells int) {
	t.Helper()
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.id != i+1 {
			t.Errorf("event %d has id %d, want contiguous ids from 1", i, ev.id)
		}
	}
	if events[0].name != "queued" {
		t.Fatalf("stream starts with %s, want queued", events[0].name)
	}
	if last := events[len(events)-1]; last.name != wantTerminal {
		t.Errorf("terminal event %q, want %s", last.name, wantTerminal)
	}
	mid := events[1 : len(events)-1]
	if wantCells == 0 {
		if len(mid) != 0 {
			t.Errorf("job that never started streamed %d events between queued and %s", len(mid), wantTerminal)
		}
		return
	}
	if len(mid) == 0 || mid[0].name != "started" {
		t.Fatalf("no started event after queued")
	}
	cells := 0
	for _, ev := range mid[1:] {
		if ev.name != "cell" {
			t.Errorf("mid-stream event %q, want cell", ev.name)
			continue
		}
		cells++
		if ev.data["done"].(float64) != float64(cells) {
			t.Errorf("cell %d carries done=%v", cells, ev.data["done"])
		}
	}
	if wantCells > 0 && cells != wantCells {
		t.Errorf("cell events = %d, want %d", cells, wantCells)
	}
}

func TestSSEEventOrdering(t *testing.T) {
	_, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)

	// Live subscription: attach immediately, read to stream end.
	live := readSSE(t, openEvents(t, ts.URL, st.ID).Body)
	done := waitDone(t, ts.URL, st.ID)
	checkEventOrdering(t, live, "done", done.Cells)

	// Late subscription: the full history replays, identically ordered.
	replay := readSSE(t, openEvents(t, ts.URL, st.ID).Body)
	checkEventOrdering(t, replay, "done", done.Cells)
	if len(replay) != len(live) {
		t.Errorf("replay has %d events, live had %d", len(replay), len(live))
	}
}

func TestGracefulDrain(t *testing.T) {
	svc, ts := newTestService(t, Options{JobWorkers: 1})
	a := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	b := submit(t, ts.URL+"/v1/runs",
		strings.Replace(runBody, `"senders": 5`, `"senders": 6`, 1), http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Accepted jobs finished during the drain.
	for _, id := range []string{a.ID, b.ID} {
		if st := waitDone(t, ts.URL, id); st.State != "done" {
			t.Errorf("job %s ended %s after drain", id, st.State)
		}
	}
	// New submissions bounce; health reports draining.
	resp, data := postJSON(t, ts.URL+"/v1/runs",
		strings.Replace(runBody, `"senders": 5`, `"senders": 9`, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit = %d (%s), want 503", resp.StatusCode, data)
	}
	resp, data = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "draining") {
		t.Errorf("healthz after drain = %d: %s", resp.StatusCode, data)
	}
	// Closing again is idempotent.
	if err := svc.Close(ctx); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestHealthzAndMetricsShapes(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &h); err != nil || h.Status != "ok" {
		t.Errorf("healthz body %s", data)
	}
	for _, name := range []string{
		"bulktx_jobs_submitted_total", "bulktx_jobs_deduped_total",
		"bulktx_jobs_rejected_total", "bulktx_jobs_done_total",
		"bulktx_jobs_failed_total", "bulktx_jobs_queued",
		"bulktx_jobs_running", "bulktx_cells_simulated_total",
		"bulktx_cells_cached_total",
	} {
		metricValue(t, ts.URL, name) // fatal if absent or unparseable
	}
	// The throughput gauge is deliberately absent before any job has
	// accrued execution time: a fresh (or cache-only) service has no
	// meaningful denominator.
	_, data = getBody(t, ts.URL+"/metrics")
	if strings.Contains(string(data), "bulktx_cells_per_sec") {
		t.Error("cells_per_sec exposed with zero busy time")
	}
	// Every histogram family is declared even before traffic.
	for _, name := range []string{
		"bulktx_http_request_duration_seconds",
		"bulktx_job_queue_wait_seconds",
		"bulktx_job_execution_seconds",
		"bulktx_cell_simulation_seconds",
	} {
		if !strings.Contains(string(data), "# TYPE "+name+" histogram") {
			t.Errorf("histogram family %s not declared", name)
		}
	}
	if !strings.Contains(string(data), "bulktx_build_info{version=") {
		t.Error("build info gauge missing")
	}
}

// TestMetricsExpositionLints pins /metrics to the Prometheus text
// format: after real traffic (a completed job, a dedupe, a status
// poll), every emitted line must pass the exposition lint — types
// declared, histogram buckets cumulative and +Inf-terminated, counts
// consistent — and the latency histograms must have recorded.
func TestMetricsExpositionLints(t *testing.T) {
	_, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	waitDone(t, ts.URL, st.ID)
	submit(t, ts.URL+"/v1/runs", runBody, http.StatusOK) // dedupe for counter coverage

	resp, data := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, err := range telemetry.LintExposition(data) {
		t.Errorf("exposition lint: %v", err)
	}
	for _, name := range []string{
		"bulktx_http_request_duration_seconds",
		"bulktx_job_queue_wait_seconds",
		"bulktx_job_execution_seconds",
		"bulktx_cell_simulation_seconds",
	} {
		if !histogramRecorded(string(data), name) {
			t.Errorf("histogram %s has no observations after a completed job", name)
		}
	}
	// With busy time accrued, the throughput gauge reappears.
	if v := metricValue(t, ts.URL, "bulktx_cells_per_sec"); v <= 0 {
		t.Errorf("cells_per_sec = %g after a simulated job", v)
	}
}

// histogramRecorded reports whether any _count series of the family
// is nonzero.
func histogramRecorded(expo, name string) bool {
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, name+"_count") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v > 0 {
			return true
		}
	}
	return false
}

// TestJobTimingsLifecycle pins the timings object of the job status:
// submitted_at from acceptance, queue-wait and execution spans once
// the job starts and finishes.
func TestJobTimingsLifecycle(t *testing.T) {
	svc, ts := newTestService(t, Options{JobWorkers: 1})
	release := make(chan struct{})
	gate := make(chan struct{})
	setGate(svc, func(*job) { close(gate); <-release })

	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	if st.Timings == nil || st.Timings.SubmittedAt.IsZero() {
		t.Fatalf("accepted status has no submitted_at: %+v", st.Timings)
	}
	if st.Timings.StartedAt != nil || st.Timings.FinishedAt != nil {
		t.Errorf("queued job already has start/finish timings: %+v", st.Timings)
	}
	<-gate // dequeued, held before running
	close(release)
	done := waitDone(t, ts.URL, st.ID)
	ti := done.Timings
	if ti == nil || ti.StartedAt == nil || ti.FinishedAt == nil {
		t.Fatalf("done job missing phase timestamps: %+v", ti)
	}
	if ti.QueueWaitS < 0 || ti.ExecutionS <= 0 {
		t.Errorf("bad spans: queue_wait_s=%g execution_s=%g", ti.QueueWaitS, ti.ExecutionS)
	}
	if got := ti.StartedAt.Sub(ti.SubmittedAt).Seconds(); got < 0 {
		t.Errorf("started %v before submitted %v", ti.StartedAt, ti.SubmittedAt)
	}
	if got := ti.FinishedAt.Sub(*ti.StartedAt).Seconds(); got <= 0 {
		t.Errorf("finished %v not after started %v", ti.FinishedAt, ti.StartedAt)
	}
}

// TestAccessLogAndRequestID pins the structured-logging contract:
// exactly one access-log line per request, carrying the request id —
// propagated when the client sent one, generated (and echoed in the
// response header) when not — and the job id on submissions.
func TestAccessLogAndRequestID(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	svc, err := New(Options{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx) //nolint:errcheck // best-effort teardown
	})

	// A propagated request id survives; the response echoes it.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "test-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-1" {
		t.Errorf("response request id %q, want propagated test-req-1", got)
	}

	// A submission logs its job id; a generated id lands on the response.
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	waitDone(t, ts.URL, st.ID)

	type accessLine struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Route     string  `json:"route"`
		Status    int     `json:"status"`
		RequestID string  `json:"request_id"`
		Job       string  `json:"job"`
		Duration  float64 `json:"duration_ms"`
	}
	var access []accessLine
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec accessLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec.Msg == "request" {
			access = append(access, rec)
		}
	}
	var healthz, submits int
	for _, rec := range access {
		if rec.RequestID == "" {
			t.Errorf("access line without request id: %+v", rec)
		}
		switch rec.Route {
		case "GET /healthz":
			healthz++
			if rec.RequestID != "test-req-1" {
				t.Errorf("healthz logged request id %q", rec.RequestID)
			}
		case "POST /v1/runs":
			submits++
			if rec.Job != st.ID {
				t.Errorf("submit access line job %q, want %q", rec.Job, st.ID)
			}
			if rec.Status != http.StatusAccepted {
				t.Errorf("submit access line status %d", rec.Status)
			}
		}
	}
	if healthz != 1 {
		t.Errorf("%d access lines for the healthz request, want exactly 1", healthz)
	}
	if submits != 1 {
		t.Errorf("%d access lines for the submission, want exactly 1", submits)
	}
	// Job lifecycle lines: queued, running, done — one each.
	logged := buf.String()
	for _, msg := range []string{"job queued", "job running", "job done"} {
		if n := strings.Count(logged, `"msg":"`+msg+`"`); n != 1 {
			t.Errorf("%d %q lifecycle lines, want 1", n, msg)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler writes
// from request goroutines while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// Write appends under the lock.
func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// String snapshots the buffer under the lock.
func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestConcurrentIdenticalSubmissions(t *testing.T) {
	// Many clients racing the same spec: exactly one job exists
	// afterwards, everyone gets its id.
	svc, ts := newTestService(t, Options{})
	const clients = 8
	ids := make(chan string, clients)
	for c := 0; c < clients; c++ {
		go func() {
			resp, data := postJSON(t, ts.URL+"/v1/sweeps", sweepBody)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("racing submit = %d (%s)", resp.StatusCode, data)
				ids <- ""
				return
			}
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				t.Error(err)
				ids <- ""
				return
			}
			ids <- st.ID
		}()
	}
	first := ""
	for c := 0; c < clients; c++ {
		id := <-ids
		if first == "" {
			first = id
		}
		if id != first {
			t.Errorf("client got job %s, another got %s", id, first)
		}
	}
	svc.mu.Lock()
	n := len(svc.jobs)
	svc.mu.Unlock()
	if n != 1 {
		t.Errorf("%d jobs exist, want 1", n)
	}
	waitDone(t, ts.URL, first)
}

func TestFailedSpecIsRetryable(t *testing.T) {
	svc, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	waitDone(t, ts.URL, st.ID)

	// Force the job into the failed state; a resubmission of the same
	// spec must start a fresh job instead of deduping onto the corpse.
	svc.mu.Lock()
	j := svc.jobs[st.ID]
	svc.mu.Unlock()
	j.mu.Lock()
	j.state = jobFailed
	j.errText = "injected failure"
	j.summary, j.resultsJSON = nil, nil
	j.mu.Unlock()

	again := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	if again.ID != st.ID {
		t.Errorf("retry got id %s, want the content key %s", again.ID, st.ID)
	}
	if again.Deduped {
		t.Error("retry of a failed spec was deduped")
	}
	if done := waitDone(t, ts.URL, again.ID); done.State != "done" {
		t.Errorf("retried job ended %s: %s", done.State, done.Error)
	}
	// The listing holds one entry for the id, the fresh job.
	resp, data := getBody(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job list = %d", resp.StatusCode)
	}
	if n := strings.Count(string(data), st.ID); n != 1 {
		t.Errorf("job list mentions the id %d times, want 1", n)
	}
}

func TestJobStoreEviction(t *testing.T) {
	_, ts := newTestService(t, Options{MaxJobs: 2})
	bodies := []string{
		runBody,
		strings.Replace(runBody, `"senders": 5`, `"senders": 6`, 1),
		strings.Replace(runBody, `"senders": 5`, `"senders": 7`, 1),
	}
	a := submit(t, ts.URL+"/v1/runs", bodies[0], http.StatusAccepted)
	b := submit(t, ts.URL+"/v1/runs", bodies[1], http.StatusAccepted)
	waitDone(t, ts.URL, a.ID)
	waitDone(t, ts.URL, b.ID)

	// The third distinct submission evicts the oldest terminal job.
	c := submit(t, ts.URL+"/v1/runs", bodies[2], http.StatusAccepted)
	resp, _ := getBody(t, ts.URL+"/v1/jobs/"+a.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job = %d, want 404", resp.StatusCode)
	}
	resp, _ = getBody(t, ts.URL+"/v1/jobs/"+b.ID)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("retained job = %d, want 200", resp.StatusCode)
	}
	if done := waitDone(t, ts.URL, c.ID); done.State != "done" {
		t.Errorf("new job ended %s", done.State)
	}

	// Resubmitting the evicted spec starts fresh — and its cell comes
	// straight from the still-warm result cache.
	re := submit(t, ts.URL+"/v1/runs", bodies[0], http.StatusAccepted)
	if re.Deduped {
		t.Error("evicted spec deduped onto a gone job")
	}
	if done := waitDone(t, ts.URL, re.ID); done.CellsCached != done.Cells {
		t.Errorf("resubmitted evicted spec simulated %d cells instead of hitting the cache",
			done.Cells-done.CellsCached)
	}
}

// TestJobsRunConcurrentlyByDefault: under zero-value Options the
// service runs one job per pool slot, so a second single-cell job
// starts before the first finishes.
func TestJobsRunConcurrentlyByDefault(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two cores: the default runs one job per core")
	}
	svc, ts := newTestService(t, Options{})
	entered := make(chan string, 2)
	release := make(chan struct{})
	setGate(svc, func(j *job) { entered <- j.id; <-release })

	a := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	b := submit(t, ts.URL+"/v1/runs",
		strings.Replace(runBody, `"senders": 5`, `"senders": 6`, 1), http.StatusAccepted)
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatal("second job never started while the first was running")
		}
	}
	close(release)
	for _, id := range []string{a.ID, b.ID} {
		if st := waitDone(t, ts.URL, id); st.State != "done" {
			t.Errorf("job %s ended %s", id, st.State)
		}
	}
}

// TestCellsPerSecCountsOverlapOnce: two overlapping jobs share their
// wall time in the throughput gauge's denominator instead of each
// adding it, so the gauge is at least cells over the wall time that
// brackets both executions.
func TestCellsPerSecCountsOverlapOnce(t *testing.T) {
	activateFaults(t, "cell.stall:delay=400ms")
	svc, ts := newTestService(t, Options{JobWorkers: 2})
	entered := make(chan string, 2)
	release := make(chan struct{})
	setGate(svc, func(j *job) { entered <- j.id; <-release })

	a := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	b := submit(t, ts.URL+"/v1/runs",
		strings.Replace(runBody, `"senders": 5`, `"senders": 6`, 1), http.StatusAccepted)
	<-entered
	<-entered
	start := time.Now() // both jobs start executing after this
	close(release)
	cells := 0
	for _, id := range []string{a.ID, b.ID} {
		st := waitDone(t, ts.URL, id)
		if st.State != "done" {
			t.Fatalf("job %s ended %s", id, st.State)
		}
		cells += st.Cells
	}
	wall := time.Since(start)
	floor := float64(cells) / wall.Seconds()
	if v := metricValue(t, ts.URL, "bulktx_cells_per_sec"); v < floor {
		t.Errorf("cells_per_sec = %.3g, below %d cells over %s of wall time (%.3g): overlapping jobs counted twice",
			v, cells, wall.Round(time.Millisecond), floor)
	}
}

// TestResultCacheMetrics: the memory tier's gauges and eviction
// counter follow the service's cache.
func TestResultCacheMetrics(t *testing.T) {
	cache := sweep.NewCache()
	_, ts := newTestService(t, Options{Cache: cache})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	waitDone(t, ts.URL, st.ID)
	stats := cache.Stats()
	if stats.Entries != 1 || stats.Bytes <= 0 {
		t.Fatalf("cache stats after one run = %+v", stats)
	}
	if v := metricValue(t, ts.URL, "bulktx_result_cache_entries"); v != 1 {
		t.Errorf("result_cache_entries = %g, want 1", v)
	}
	if v := metricValue(t, ts.URL, "bulktx_result_cache_bytes"); v != float64(stats.Bytes) {
		t.Errorf("result_cache_bytes = %g, want %d", v, stats.Bytes)
	}
	if v := metricValue(t, ts.URL, "bulktx_result_cache_evictions_total"); v != 0 {
		t.Errorf("result_cache_evictions_total = %g, want 0", v)
	}
}
