package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bulktx/internal/faultinject"
	"bulktx/internal/sweep"
)

// activateFaults installs a fault plan for the test's duration.
func activateFaults(t *testing.T, spec string) {
	t.Helper()
	plan, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Activate(plan)
	t.Cleanup(restore)
}

// del issues DELETE /v1/jobs/{id} and returns the response + body.
func del(t *testing.T, base, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	bufio.NewReader(resp.Body).WriteTo(&buf) //nolint:errcheck // short test body
	return resp, []byte(buf.String())
}

// waitState polls until the job reports the wanted state.
func waitState(t *testing.T, base, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for time.Now().Before(deadline) {
		_, data := getBody(t, base+"/v1/jobs/"+id)
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
	return st
}

func TestCancelQueuedJob(t *testing.T) {
	svc, ts := newTestService(t, Options{JobWorkers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	setGate(svc, func(*job) { started <- struct{}{}; <-release })
	defer close(release)

	// First job occupies the single executor; the second stays queued.
	blocker := submit(t, ts.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)
	<-started
	queued := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)

	resp, body := del(t, ts.URL, queued.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job = %d: %s", resp.StatusCode, body)
	}
	if st := waitState(t, ts.URL, queued.ID, string(jobCanceled)); st.CellsDone != 0 {
		t.Errorf("canceled-while-queued job simulated %d cells", st.CellsDone)
	}
	// Canceling a terminal job conflicts.
	if resp, _ := del(t, ts.URL, queued.ID); resp.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE = %d, want 409", resp.StatusCode)
	}
	// The canceled job's artifacts are gone too.
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+queued.ID+"/artifacts/results.csv"); resp.StatusCode != http.StatusConflict {
		t.Errorf("artifact of canceled job = %d, want 409", resp.StatusCode)
	}
	if v := metricValue(t, ts.URL, "bulktx_jobs_canceled_total"); v != 1 {
		t.Errorf("bulktx_jobs_canceled_total = %g, want 1", v)
	}
	_ = blocker
}

func TestCancelRunningJobUnwindsBetweenCells(t *testing.T) {
	// Every cell stalls for far longer than the test; cancellation must
	// interrupt the stall (it is context-aware) and unwind the job.
	activateFaults(t, "cell.stall:delay=30s")
	_, ts := newTestService(t, Options{JobWorkers: 1, Workers: 1})

	st := submit(t, ts.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)
	waitState(t, ts.URL, st.ID, string(jobRunning))
	resp, body := del(t, ts.URL, st.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job = %d: %s", resp.StatusCode, body)
	}
	waitState(t, ts.URL, st.ID, string(jobCanceled))

	// A canceled spec is resubmittable: the job slot is replaced.
	activateFaults(t, "") // lift the stall
	st2 := submit(t, ts.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)
	if st2.ID != st.ID {
		t.Fatalf("resubmitted spec got id %s, want the original %s", st2.ID, st.ID)
	}
	if done := waitDone(t, ts.URL, st2.ID); done.State != string(jobDone) {
		t.Fatalf("resubmitted job ended %s: %s", done.State, done.Error)
	}
}

func TestJobDeadlineFailsJob(t *testing.T) {
	activateFaults(t, "cell.stall:delay=30s")
	_, ts := newTestService(t, Options{})

	body := `{"model": "sensor", "senders": 5, "duration_s": 30, "rate_bps": 2000, "deadline_s": 0.05}`
	st := submit(t, ts.URL+"/v1/runs", body, http.StatusAccepted)
	if st.DeadlineS != 0.05 {
		t.Errorf("accepted status deadline_s = %g, want 0.05", st.DeadlineS)
	}
	done := waitDone(t, ts.URL, st.ID)
	if done.State != string(jobFailed) || !strings.Contains(done.Error, "deadline") {
		t.Fatalf("deadline job ended %s (%q), want failed with a deadline error", done.State, done.Error)
	}
}

func TestNegativeDeadlineRejected(t *testing.T) {
	_, ts := newTestService(t, Options{})
	resp, data := postJSON(t, ts.URL+"/v1/runs", `{"senders": 5, "deadline_s": -1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline = %d: %s", resp.StatusCode, data)
	}
	var body apiError
	if err := json.Unmarshal(data, &body); err != nil || body.Field != "deadline_s" {
		t.Errorf("error body %s does not name deadline_s", data)
	}
}

func TestOverflowingDeadlineRejected(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for _, c := range []struct{ path, body string }{
		{"/v1/runs", `{"model": "sensor", "senders": 5, "duration_s": 10, "deadline_s": 1e10}`},
		{"/v1/runs", `{"senders": 5, "deadline_s": 9223372036.854775808}`},
		{"/v1/sweeps", `{"models": ["sensor"], "senders": [5], "deadline_s": 1e300}`},
	} {
		resp, data := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d: %s", c.path, c.body, resp.StatusCode, data)
			continue
		}
		var body apiError
		if err := json.Unmarshal(data, &body); err != nil || body.Field != "deadline_s" {
			t.Errorf("error body %s does not name deadline_s", data)
		}
	}
	// The longest representable deadline is still accepted.
	st := submit(t, ts.URL+"/v1/runs",
		`{"model": "sensor", "senders": 5, "duration_s": 10, "deadline_s": 9223372036}`, http.StatusAccepted)
	if st.DeadlineS <= 0 {
		t.Errorf("accepted status deadline_s = %g, want the submitted bound", st.DeadlineS)
	}
}

func TestPartialFailureReportsCellDetail(t *testing.T) {
	// One fault budget, four cells: exactly one cell quarantines (the
	// service's default retry policy is one attempt) and the job still
	// completes with the three survivors.
	activateFaults(t, "cell.panic:count=1")
	_, ts := newTestService(t, Options{})

	st := submit(t, ts.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)
	done := waitDone(t, ts.URL, st.ID)
	if done.State != string(jobDone) {
		t.Fatalf("partially failed sweep ended %s: %s", done.State, done.Error)
	}
	if done.CellsFailed != 1 || len(done.CellErrors) != 1 {
		t.Fatalf("cells_failed=%d cell_errors=%d, want 1/1", done.CellsFailed, len(done.CellErrors))
	}
	ce := done.CellErrors[0]
	if ce.Attempts != 1 || !strings.Contains(ce.Error, "panic") || ce.Point == "" {
		t.Errorf("cell error detail %+v lacks attempts/panic/point", ce)
	}
	// The JSON artifact carries the quarantine summary...
	_, data := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/results.json")
	var doc struct {
		// Failed and Cells mirror the export shape under test.
		Failed int               `json:"failed"`
		Errors []json.RawMessage `json:"errors"`
		Cells  []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Failed != 1 || len(doc.Errors) != 1 || len(doc.Cells) != 3 {
		t.Errorf("results.json failed=%d errors=%d cells=%d, want 1/1/3", doc.Failed, len(doc.Errors), len(doc.Cells))
	}
	// ...and the counters add up.
	if v := metricValue(t, ts.URL, "bulktx_cells_failed_total"); v != 1 {
		t.Errorf("bulktx_cells_failed_total = %g, want 1", v)
	}
}

func TestAllCellsFailedFailsJob(t *testing.T) {
	activateFaults(t, "cell.panic")
	_, ts := newTestService(t, Options{})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	done := waitDone(t, ts.URL, st.ID)
	if done.State != string(jobFailed) || !strings.Contains(done.Error, "all 1 cells failed") {
		t.Fatalf("fully failed job ended %s (%q)", done.State, done.Error)
	}
	if done.CellsFailed != 1 || len(done.CellErrors) != 1 {
		t.Errorf("cells_failed=%d cell_errors=%d, want 1/1", done.CellsFailed, len(done.CellErrors))
	}
}

func TestCellRetrySucceedsBehindService(t *testing.T) {
	// Two injected panics, three attempts: the cell recovers and the
	// retry counter records the two extra attempts.
	activateFaults(t, "cell.panic:count=2")
	_, ts := newTestService(t, Options{
		Workers: 1,
		Retry:   sweep.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	done := waitDone(t, ts.URL, st.ID)
	if done.State != string(jobDone) || done.CellsFailed != 0 {
		t.Fatalf("retried job ended %s with %d failed cells", done.State, done.CellsFailed)
	}
	if v := metricValue(t, ts.URL, "bulktx_cell_retries_total"); v != 2 {
		t.Errorf("bulktx_cell_retries_total = %g, want 2", v)
	}
}

func TestJournalReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	lines := `{"op":"submitted","id":"aaaa","kind":"run","doc":{"senders":[5]}}
{"op":"done","id":"aaaa"}
{"op":"submitted","id":"bbbb","kind":"sweep","doc":{"senders":[5,10]}}
{"op":"subm` // torn final line: crashed mid-append
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, pending, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	if len(pending) != 1 || pending[0].ID != "bbbb" || pending[0].Kind != "sweep" {
		t.Fatalf("pending = %+v, want exactly the unfinished bbbb", pending)
	}
	// Compaction rewrote the file down to the live backlog.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 1 || !strings.Contains(string(data), "bbbb") {
		t.Fatalf("compacted journal has %d lines (%q), want 1 line for bbbb", got, data)
	}
	// New appends land after the compacted content and replay in order.
	jl.append(journalRecord{Op: opSubmitted, ID: "cccc", Kind: "run", Doc: json.RawMessage(`{}`)})
	jl.append(journalRecord{Op: opCanceled, ID: "bbbb"})
	jl.close()
	_, pending2, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending2) != 1 || pending2[0].ID != "cccc" {
		t.Fatalf("second replay pending = %+v, want exactly cccc", pending2)
	}
}

func TestJournalReplayResubmitAfterTerminal(t *testing.T) {
	// A failed job resubmitted before a crash: the journal holds its id
	// twice with a terminal record between. Replay must return it once,
	// or recovery adopts it twice and journals a drop for the live job.
	dir := t.TempDir()
	lines := `{"op":"submitted","id":"aaaa","kind":"run","doc":{}}
{"op":"failed","id":"aaaa","error":"boom"}
{"op":"submitted","id":"bbbb","kind":"run","doc":{}}
{"op":"submitted","id":"aaaa","kind":"run","doc":{}}
`
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, pending, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if len(pending) != 2 || pending[0].ID != "aaaa" || pending[1].ID != "bbbb" {
		t.Fatalf("pending = %+v, want aaaa then bbbb, once each", pending)
	}
}

func TestJournalAppendFailureDegradesGracefully(t *testing.T) {
	activateFaults(t, "journal.append")
	_, ts := newTestService(t, Options{StateDir: t.TempDir()})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	if done := waitDone(t, ts.URL, st.ID); done.State != string(jobDone) {
		t.Fatalf("job with failing journal ended %s: %s", done.State, done.Error)
	}
	if v := metricValue(t, ts.URL, "bulktx_journal_write_errors_total"); v < 2 {
		t.Errorf("bulktx_journal_write_errors_total = %g, want >= 2 (submitted + done)", v)
	}
}

// TestCrashRecoveryResumesJobs is the crash-safety acceptance test: a
// service with a state dir accepts a job and "crashes" (is abandoned
// without draining) before the job finishes; a second service on the
// same state dir replays the journal, resubmits the job under its
// original id, and runs it to completion — while a subscriber whose
// first SSE connection died rudely mid-stream reconnects against the
// restarted service and still receives the full event history.
func TestCrashRecoveryResumesJobs(t *testing.T) {
	stateDir := t.TempDir()
	cacheDir := t.TempDir()

	// --- first incarnation: accepts the job, never finishes it.
	cache1, err := sweep.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := New(Options{StateDir: stateDir, Cache: cache1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hang := make(chan struct{})
	defer close(hang)
	setGate(svc1, func(*job) { <-hang }) // executor wedges: the crash stand-in
	ts1 := httptest.NewServer(svc1)
	defer ts1.Close()

	st := submit(t, ts1.URL+"/v1/sweeps", sweepBody, http.StatusAccepted)

	// A rude subscriber: connects to the event stream, reads the first
	// event, then slams the connection shut mid-stream.
	resp, err := http.Get(ts1.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(resp.Body)
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "id: 1") {
		t.Fatalf("first SSE line %q (%v)", line, err)
	}
	resp.Body.Close() // rude: mid-stream, no draining

	// svc1 is now abandoned without Close — the process-crash stand-in.
	// Its journal holds the submitted record with no terminal.

	// --- second incarnation: same state dir, working executors.
	cache2, err := sweep.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := New(Options{StateDir: stateDir, Cache: cache2, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2)
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc2.Close(ctx) //nolint:errcheck // best-effort teardown
	})

	// The pre-crash job id resolves immediately — no resubmission.
	recovered := waitDone(t, ts2.URL, st.ID)
	if recovered.State != string(jobDone) {
		t.Fatalf("recovered job ended %s: %s", recovered.State, recovered.Error)
	}
	if v := metricValue(t, ts2.URL, "bulktx_jobs_recovered_total"); v != 1 {
		t.Errorf("bulktx_jobs_recovered_total = %g, want 1", v)
	}

	// The rude subscriber reconnects against the restarted service and
	// replays the full history, terminal event included.
	resp2, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events := readSSEEventNames(t, resp2.Body, "done")
	for _, want := range []string{"queued", "started", "cell", "done"} {
		if !events[want] {
			t.Errorf("replayed history after restart lacks %q event (got %v)", want, events)
		}
	}

	// Recovery replayed through the shared disk cache: submitting the
	// same spec again is served without simulating anything.
	again := submit(t, ts2.URL+"/v1/sweeps", sweepBody, http.StatusOK)
	if !again.Deduped {
		t.Errorf("post-recovery resubmission was not deduped: %+v", again)
	}

	// The journal compacts back to empty on the next restart: nothing
	// is pending anymore.
	svc3, err := New(Options{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close(context.Background()) //nolint:errcheck // empty service
	if v := svc3.counters.recovered.Load(); v != 0 {
		t.Errorf("third incarnation recovered %d jobs, want 0", v)
	}
}

// readSSEEventNames consumes the stream until the terminal event name
// (or EOF) and reports the set of event names seen.
func readSSEEventNames(t *testing.T, body interface{ Read([]byte) (int, error) }, terminal string) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			names[name] = true
			if name == terminal {
				break
			}
		}
	}
	return names
}

func TestAdaptiveRetryAfterTracksDrainRate(t *testing.T) {
	svc, err := New(Options{RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background()) //nolint:errcheck // no jobs accepted

	now := time.Now()
	// No drain evidence: the configured floor is advertised.
	if got := svc.retryAfterHint(now); got != 2*time.Second {
		t.Errorf("hint with no history = %v, want the 2s floor", got)
	}
	// Ten completions over the last ~10s ≈ 1 job/s; a backlog of 19+1
	// should advertise ~20s.
	for i := 0; i < 10; i++ {
		svc.drains.record(now.Add(-time.Duration(10-i) * time.Second))
	}
	svc.counters.queued.Store(19)
	got := svc.retryAfterHint(now)
	if got < 15*time.Second || got > 25*time.Second {
		t.Errorf("hint with 1 job/s drain and backlog 20 = %v, want ~20s", got)
	}
	// A huge backlog is clamped to the cap.
	svc.counters.queued.Store(100000)
	if got := svc.retryAfterHint(now); got != maxRetryAfter {
		t.Errorf("hint with huge backlog = %v, want the %v cap", got, maxRetryAfter)
	}
	// Stamps outside the window expire: back to the floor.
	svc.counters.queued.Store(0)
	if got := svc.retryAfterHint(now.Add(drainWindow + time.Minute)); got != 2*time.Second {
		t.Errorf("hint after the window = %v, want the 2s floor", got)
	}
}

func TestCacheWriteFailureCountsAndFallsBack(t *testing.T) {
	activateFaults(t, "cache.put")
	cache, err := sweep.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Options{Cache: cache})
	st := submit(t, ts.URL+"/v1/runs", runBody, http.StatusAccepted)
	if done := waitDone(t, ts.URL, st.ID); done.State != string(jobDone) {
		t.Fatalf("job with failing cache disk ended %s: %s", done.State, done.Error)
	}
	if v := metricValue(t, ts.URL, "bulktx_cache_write_errors_total"); v != 1 {
		t.Errorf("bulktx_cache_write_errors_total = %g, want 1", v)
	}
}
