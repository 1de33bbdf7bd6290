package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// serveRunSpec is perfbench serve-mixed's request at the given seed: a
// 25-sender single-hop dual-radio run of 30 simulated seconds, about
// 3,500 delivered packets.
func serveRunSpec(seed int) string {
	return fmt.Sprintf(`{"case": "single-hop", "model": "dual", "senders": 25, "burst": 100, `+
		`"rate_bps": 2000, "duration_s": 30, "seed": %d}`, seed)
}

// serveLocal answers one request through the service's handler in this
// process, with no connection or client buffers to blur a heap
// measurement.
func serveLocal(svc *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// newLocalService builds a service for heap measurements. Its result
// cache keeps nothing in memory: that tier is bounded on its own
// (CacheMemoryBudget), so what remains is the job store.
func newLocalService(t *testing.T) *Server {
	t.Helper()
	svc, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc.pool.Cache.SetMemoryBudget(1)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx) //nolint:errcheck // best-effort teardown
	})
	return svc
}

// sweep40Spec is a 40-cell sweep (2 sender counts x 2 bursts x 10
// runs of 5 simulated seconds) at the given seed.
func sweep40Spec(seed int) string {
	return fmt.Sprintf(`{"models": ["dual"], "senders": [5, 10], "bursts": [10, 100], `+
		`"runs": 10, "rate_bps": 2000, "duration_s": 5, "seed": %d}`, seed)
}

// runLocal submits one run job and follows its event stream to the
// end, failing the test unless the job is done. It returns the job id.
func runLocal(t *testing.T, svc *Server, body string) string {
	t.Helper()
	return submitLocal(t, svc, "/v1/runs", body)
}

// submitLocal posts body to path (/v1/runs or /v1/sweeps) and follows
// the job's event stream to the end, failing the test unless the job
// is done. It returns the job id.
func submitLocal(t *testing.T, svc *Server, path, body string) string {
	t.Helper()
	rec := serveLocal(svc, http.MethodPost, path, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST %s = %d: %s", path, rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	rec = serveLocal(svc, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "")
	if !strings.Contains(rec.Body.String(), "event: done\n") {
		t.Fatalf("job %s did not end done:\n%s", st.ID, rec.Body)
	}
	return st.ID
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDoneJobRetention bounds what a finished job keeps in the store:
// per-point summaries and its results.json, not per-packet results. A
// job that kept its outcome would pin every delivered packet's delay,
// about 28 KB for this request.
func TestDoneJobRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurement is skewed under -race")
	}
	const jobs, perJobLimit = 200, 8 << 10
	svc := newLocalService(t)
	for seed := 1; seed <= 4; seed++ { // warm up executors and pools
		runLocal(t, svc, serveRunSpec(seed))
	}
	before := liveHeap()
	for seed := 100; seed < 100+jobs; seed++ {
		runLocal(t, svc, serveRunSpec(seed))
	}
	grown := liveHeap() - before
	t.Logf("%d done jobs grew the live heap by %d B (%d B per job)", jobs, grown, grown/jobs)
	if grown/jobs >= perJobLimit {
		t.Errorf("each done job retains %d B, want < %d B", grown/jobs, perJobLimit)
	}
}

// TestDoneSweepRetention bounds what a finished 40-cell sweep keeps:
// its cell count, summaries, results.json and the SSE history that
// replay needs, but not its compiled job list (about 400 B per cell).
func TestDoneSweepRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurement is skewed under -race")
	}
	const jobs, perJobLimit = 20, 24 << 10
	svc := newLocalService(t)
	for seed := 1; seed <= 2; seed++ { // warm up executors and pools
		submitLocal(t, svc, "/v1/sweeps", sweep40Spec(seed))
	}
	before := liveHeap()
	for seed := 100; seed < 100+jobs; seed++ {
		submitLocal(t, svc, "/v1/sweeps", sweep40Spec(seed))
	}
	grown := liveHeap() - before
	t.Logf("%d done sweeps grew the live heap by %d B (%d B per job)", jobs, grown, grown/jobs)
	if grown/jobs >= perJobLimit {
		t.Errorf("each done sweep retains %d B, want < %d B", grown/jobs, perJobLimit)
	}
}

// TestTraceArtifactNotRetained checks that serving trace.jsonl keeps
// nothing on the job: one traced run of this request holds about
// 1.7 MB, so memoizing it would pin that much per job for the job's
// whole life.
func TestTraceArtifactNotRetained(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurement is skewed under -race")
	}
	const jobs, perJobLimit = 8, 170 << 10
	svc := newLocalService(t)
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = runLocal(t, svc, serveRunSpec(200+i))
	}
	before := liveHeap()
	for _, id := range ids {
		rec := serveLocal(svc, http.MethodGet, "/v1/jobs/"+id+"/artifacts/trace.jsonl", "")
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Fatalf("trace.jsonl of %s = %d (%d B)", id, rec.Code, rec.Body.Len())
		}
	}
	grown := liveHeap() - before
	t.Logf("%d trace.jsonl downloads grew the live heap by %d B", jobs, grown)
	if grown/jobs >= perJobLimit {
		t.Errorf("each traced job retains %d B, want < %d B", grown/jobs, perJobLimit)
	}
}

// TestServedArtifactsMatchGoldens runs the sweep of the export goldens
// (internal/sweep/testdata/golden) through the service, quarantined
// cell included, and checks that every served artifact equals its
// golden byte for byte. report.md differs only in its title.
func TestServedArtifactsMatchGoldens(t *testing.T) {
	goldens := filepath.Join("..", "sweep", "testdata", "golden")
	spec, err := os.ReadFile(filepath.Join(goldens, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The golden sweep's fault: the first job panics and is
	// quarantined.
	activateFaults(t, "cell.panic:count=1")
	_, ts := newTestService(t, Options{Workers: 1})
	st := submit(t, ts.URL+"/v1/sweeps", string(spec), http.StatusAccepted)
	if done := waitDone(t, ts.URL, st.ID); done.State != string(jobDone) || done.CellsFailed != 1 {
		t.Fatalf("golden sweep ended %s with %d failed cells: %s", done.State, done.CellsFailed, done.Error)
	}
	for _, name := range []string{"results.json", "results.csv", "report.md"} {
		resp, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/artifacts/"+name)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", name, resp.StatusCode, got)
		}
		if name == "report.md" {
			got = bytes.ReplaceAll(got, []byte("bulktx job "+st.ID), []byte("golden sweep"))
		}
		want, err := os.ReadFile(filepath.Join(goldens, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("served %s differs from its golden:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
