package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bulktx/internal/service"
)

// testProfile is a scaled-down ShortProfile: every behavior once or
// twice, short simulated durations, no honored sleep — the whole run
// completes in well under a second against the in-process service.
func testProfile() Profile {
	return Profile{
		Name:           "test",
		Singles:        2,
		SweepPairs:     1,
		Resubmits:      2,
		RudeSubs:       1,
		LateReplays:    2,
		StormExtras:    2,
		QueueLimit:     4,
		JobWorkers:     2,
		RunDurationS:   5,
		PlugRuns:       6,
		PlugDurationS:  120,
		RetryAfterCapS: 0.001,
	}
}

// pipeWriter adapts an io.Pipe into a streaming http.ResponseWriter:
// the SSE handler's Flush and WriteHeader work, and body bytes reach
// the client as they are written — no real listener involved.
type pipeWriter struct {
	pw     *io.PipeWriter
	header http.Header
	mu     sync.Mutex
	status int
	ready  chan struct{} // closed once the status line is decided
}

func (w *pipeWriter) Header() http.Header { return w.header }

func (w *pipeWriter) WriteHeader(code int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.status == 0 {
		w.status = code
		close(w.ready)
	}
}

func (w *pipeWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

func (w *pipeWriter) Flush() {}

// pipeTransport serves every request straight from an http.Handler:
// RoundTrip returns as soon as the handler commits its status line,
// while the body streams through an in-memory pipe. Closing the
// response body (or canceling the request context) unblocks the
// handler the same way a dropped TCP connection would.
type pipeTransport struct{ h http.Handler }

func (t pipeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	w := &pipeWriter{pw: pw, header: make(http.Header), ready: make(chan struct{})}
	go func() {
		t.h.ServeHTTP(w, req)
		w.WriteHeader(http.StatusOK) // handler wrote nothing: commit 200
		pw.Close()
	}()
	select {
	case <-w.ready:
	case <-req.Context().Done():
		pr.Close()
		return nil, req.Context().Err()
	}
	w.mu.Lock()
	status := w.status
	w.mu.Unlock()
	return &http.Response{
		StatusCode: status,
		Status:     http.StatusText(status),
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  w.header,
		Body:    &cancelBody{pr: pr, cancel: req.Context()},
		Request: req,
	}, nil
}

// cancelBody closes the pipe's read end on Close and drains reads
// until the handler observes the cancellation.
type cancelBody struct {
	pr     *io.PipeReader
	cancel context.Context
}

func (b *cancelBody) Read(p []byte) (int, error) {
	if err := b.cancel.Err(); err != nil {
		return 0, io.EOF
	}
	return b.pr.Read(p)
}

func (b *cancelBody) Close() error { return b.pr.Close() }

// newInProcess builds a service matching the test profile's shape and
// an Options driving it entirely in-process.
func newInProcess(t *testing.T, seed int64) Options {
	t.Helper()
	p := testProfile()
	svc, err := service.New(service.Options{
		Workers:    2,
		QueueLimit: p.QueueLimit,
		JobWorkers: p.JobWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx) //nolint:errcheck // best-effort teardown
	})
	return Options{
		BaseURL:     "http://in-process",
		Seed:        seed,
		Profile:     p,
		Client:      &http.Client{Transport: pipeTransport{h: svc}},
		WaitTimeout: 30 * time.Second,
		Sleep:       func(time.Duration) {},
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	p := testProfile()
	a, err := BuildSchedule(7, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(7, p)
	if err != nil {
		t.Fatal(err)
	}
	if ScheduleSHA256(a) != ScheduleSHA256(b) {
		t.Error("same seed produced different schedules")
	}
	c, err := BuildSchedule(8, p)
	if err != nil {
		t.Fatal(err)
	}
	if ScheduleSHA256(a) == ScheduleSHA256(c) {
		t.Error("different seeds produced identical schedules")
	}
	// The storm must overflow the queue by exactly StormExtras 429s.
	want429 := 0
	for _, op := range a {
		if op.Kind == OpSubmit && op.Want == http.StatusTooManyRequests {
			want429++
		}
	}
	if want429 != p.StormExtras {
		t.Errorf("schedule has %d expected 429s, want %d", want429, p.StormExtras)
	}
}

func TestBuildScheduleRejectsBadProfiles(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.Singles = -1 },
		func(p *Profile) { p.Singles, p.SweepPairs = 0, 0 },
		func(p *Profile) { p.QueueLimit = 1 },
		func(p *Profile) { p.JobWorkers = 0 },
		func(p *Profile) { p.PlugRuns = 1 },
		func(p *Profile) { p.RunDurationS = 0 },
		func(p *Profile) { p.RetryAfterCapS = -1 },
	}
	for i, mutate := range bad {
		p := testProfile()
		mutate(&p)
		if _, err := BuildSchedule(1, p); err == nil {
			t.Errorf("bad profile %d: BuildSchedule accepted it", i)
		}
	}
}

// TestRunDeterministicAgainstSameService is the acceptance criterion
// in miniature: two runs with the same seed against the same live
// service must be behaviorally clean and produce identical
// deterministic counters, and the compare gate must accept run 2
// against run 1's report.
func TestRunDeterministicAgainstSameService(t *testing.T) {
	o := newInProcess(t, 3)
	ctx := context.Background()
	rep1, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Report{rep1, rep2} {
		if rep.Counters.UnexpectedErrors != 0 || rep.Counters.SSEReplayErrors != 0 {
			t.Fatalf("run not clean: %+v\nerrors: %v", rep.Counters, rep.Errors)
		}
	}
	if rep1.Counters != rep2.Counters {
		t.Errorf("counters diverged:\nrun1 %+v\nrun2 %+v", rep1.Counters, rep2.Counters)
	}
	if rep1.ScheduleSHA256 != rep2.ScheduleSHA256 {
		t.Error("schedule hashes diverged across runs")
	}
	p := o.Profile
	if got, want := rep1.Counters.Rejected429, p.StormExtras; got != want {
		t.Errorf("rejected_429 = %d, want %d", got, want)
	}
	if got, want := rep1.Counters.DedupeHits, p.SweepPairs*p.Resubmits; got != want {
		t.Errorf("dedupe_hits = %d, want %d", got, want)
	}
	if rep1.Observed.RetryAfterMaxS <= 0 {
		t.Error("storm recorded no Retry-After hint")
	}
	var sb strings.Builder
	if err := CompareReports(&sb, rep1, rep2); err != nil {
		t.Errorf("gate rejected run 2 against run 1: %v\n%s", err, sb.String())
	}
}

// TestReportSchema pins the BENCH_SERVE.json schema: the committed
// baseline is parsed with DisallowUnknownFields, so renaming or
// dropping a field must be a conscious, test-visible change.
func TestReportSchema(t *testing.T) {
	o := newInProcess(t, 5)
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"go_version", "goos", "goarch", "num_cpu", "seed", "profile",
		"schedule_sha256", "schedule_ops", "counters", "observed",
	} {
		if _, ok := top[key]; !ok {
			t.Errorf("report is missing top-level key %q", key)
		}
	}
	var counters map[string]int
	if err := json.Unmarshal(top["counters"], &counters); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "submissions", "accepted", "dedupe_attempts",
		"dedupe_hits", "rejected_429", "cancels", "sse_streams",
		"sse_replays_checked", "sse_replay_errors", "sse_rude_disconnects",
		"unexpected_errors",
	} {
		if _, ok := counters[key]; !ok {
			t.Errorf("counters are missing key %q", key)
		}
	}
	// Round-tripping through the strict baseline loader must work: this
	// is exactly how the CI gate reads the committed file.
	var roundTrip Report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&roundTrip); err != nil {
		t.Fatalf("report does not survive the strict baseline decode: %v", err)
	}
	if roundTrip.Counters != rep.Counters {
		t.Error("counters changed across the JSON round trip")
	}
}

func TestCompareReportsRejects(t *testing.T) {
	base := &Report{
		Seed:           1,
		ScheduleSHA256: "aaaa",
		Counters:       Counters{Requests: 10, DedupeAttempts: 2, DedupeHits: 2},
	}
	clean := func() *Report {
		r := *base
		return &r
	}
	t.Run("seed mismatch", func(t *testing.T) {
		cur := clean()
		cur.Seed = 2
		if err := CompareReports(io.Discard, base, cur); err == nil || !strings.Contains(err.Error(), "seed mismatch") {
			t.Errorf("got %v, want seed mismatch", err)
		}
	})
	t.Run("schedule mismatch", func(t *testing.T) {
		cur := clean()
		cur.ScheduleSHA256 = "bbbb"
		if err := CompareReports(io.Discard, base, cur); err == nil || !strings.Contains(err.Error(), "schedule mismatch") {
			t.Errorf("got %v, want schedule mismatch", err)
		}
	})
	t.Run("unclean run", func(t *testing.T) {
		cur := clean()
		cur.Counters.UnexpectedErrors = 1
		if err := CompareReports(io.Discard, base, cur); err == nil || !strings.Contains(err.Error(), "not clean") {
			t.Errorf("got %v, want not clean", err)
		}
	})
	t.Run("counter divergence", func(t *testing.T) {
		cur := clean()
		cur.Counters.Requests = 11
		err := CompareReports(io.Discard, base, cur)
		if err == nil || !strings.Contains(err.Error(), "requests: baseline 10, current 11") {
			t.Errorf("got %v, want a requests divergence", err)
		}
	})
	t.Run("identical passes", func(t *testing.T) {
		if err := CompareReports(io.Discard, base, clean()); err != nil {
			t.Errorf("identical reports failed the gate: %v", err)
		}
	})
}
