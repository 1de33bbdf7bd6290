package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/service"
	"bulktx/internal/sweep"
)

const (
	// serveClients is the closed loop's client count: each sends its
	// next op only after the previous one completed.
	serveClients = 2
	// serveBlock and one fresh op per block fix the fresh share at
	// exactly 1/serveBlock; the seed picks the fresh op's position.
	serveBlock = 4
	// serveRecent bounds how far back a repeat reaches: one of the
	// last serveRecent fresh requests, well inside the service's
	// default 1024 retained jobs, so every repeat is answered by job
	// dedupe rather than by a re-created job.
	serveRecent = 64
	// serveScheduleLen is the schedule length; a run stops at its
	// window long before it runs out.
	serveScheduleLen = 1 << 17
	// serveCountedFresh is how many of the first fresh requests the
	// deterministic simulator counts are summed over.
	serveCountedFresh = 8
)

// serveTemplate is every request's scenario: a small single-hop
// paper-grid run of tens of simulated seconds at the paper's 2 Kbps
// rate, the rate at which bursts fire. Only the seed varies.
var serveTemplate = service.RunRequest{
	Case: "single-hop", Model: "dual", Senders: 25, Burst: 100,
	RateBps: params.HighRate.BitsPerSecond(), DurationS: 30,
}

// serveOp is one op of the serve-mixed schedule: a fresh request with
// a seed no earlier op used, or a repeat of the fresh op at Target.
type serveOp struct {
	Fresh  bool
	Seed   int64
	Target int
}

// serveSchedule derives the op sequence of a workload seed. One op in
// every serveBlock is fresh (the first op always is); the rest repeat
// one of the last serveRecent fresh ops, chosen by the seed.
func serveSchedule(seed int64, n int) []serveOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]serveOp, 0, n)
	var fresh []int
	for b := 0; len(ops) < n; b++ {
		pos := r.Intn(serveBlock)
		if b == 0 {
			pos = 0
		}
		for p := 0; p < serveBlock && len(ops) < n; p++ {
			i := len(ops)
			if p == pos {
				ops = append(ops, serveOp{Fresh: true, Seed: seed<<24 + int64(len(fresh)) + 1, Target: i})
				fresh = append(fresh, i)
				continue
			}
			recent := fresh[max(0, len(fresh)-serveRecent):]
			t := recent[r.Intn(len(recent))]
			ops = append(ops, serveOp{Seed: ops[t].Seed, Target: t})
		}
	}
	return ops
}

// serveRequest is the request an op submits.
func serveRequest(op serveOp) service.RunRequest {
	req := serveTemplate
	req.Seed = op.Seed
	return req
}

// opOutcome is what one serve-mixed op observed.
type opOutcome struct {
	ok       bool
	latency  time.Duration
	body     [sha256.Size]byte // sha256 of results.json
	deduped  bool
	rejected bool
	submit   time.Duration
	events   time.Duration
	artifact time.Duration
	// Job-side timings (traced phases only): submitted->started and
	// started->finished.
	queueWait, exec time.Duration
}

// runServeMixed builds the service bcp-serve runs, with bcp-serve's
// default settings, and drives its HTTP handler with serveClients
// clients in a closed loop until the window ends. Requests reach the
// handler through an in-memory transport in this process, not over a
// socket: on a shared 2-core virtual machine the cross-process loopback
// round trips made run-to-run throughput vary by a fifth to a third. Each op
// submits a run, follows its SSE stream to the terminal event and
// downloads results.json. After the window, every repeat must match
// its original byte-for-byte and every fresh op must match the sweep
// export of the same job run directly.
func runServeMixed(o options, spans *spanLog) (*measurement, error) {
	traced := spans != nil
	m := &measurement{layers: map[string]float64{}}
	var svc *service.Server
	for range setupReps {
		s, took, err := startService()
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, took)
		if svc != nil {
			if err := closeService(svc); err != nil {
				return nil, err
			}
		}
		svc = s
	}
	defer closeService(svc) //nolint:errcheck // a drain failure after the checks changes nothing

	sched := serveSchedule(o.seed, serveScheduleLen)
	c := &serveClient{base: inProcessBase, hc: &http.Client{
		Timeout: 60 * time.Second, Transport: handlerTransport{svc},
	}}
	outcomes := make([]opOutcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	prof, err := startProcTrace(traced)
	if err != nil {
		return nil, err
	}
	u0 := selfUsage()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				outcomes[i] = c.do(fmt.Sprintf("op%d", i), serveRequest(sched[i]), spans)
			}
		}()
	}
	wg.Wait()
	m.wall = time.Since(start)
	u1 := selfUsage()
	m.peakRSS, m.cpu = u1.peakRSS, u1.cpu-u0.cpu
	prof.stop(m)
	n := min(int(next.Load()), len(sched))
	sched, outcomes = sched[:n], outcomes[:n]
	if traced {
		if err := c.sweepStats(m.layers); err != nil {
			return nil, err
		}
	}

	var (
		submit, events, artifact, queueWait, exec []time.Duration
		repeats, dedupes, rejected                int
		freshLat, repeatLat                       []time.Duration
	)
	for i, oc := range outcomes {
		m.attempted++
		if !oc.ok {
			oc.latency = failedLatency
		}
		m.ops = append(m.ops, oc.latency)
		submit = append(submit, oc.submit)
		events = append(events, oc.events)
		artifact = append(artifact, oc.artifact)
		if oc.deduped {
			dedupes++
		}
		if oc.rejected {
			rejected++
		}
		if !sched[i].Fresh {
			repeats++
			repeatLat = append(repeatLat, oc.latency)
		} else {
			freshLat = append(freshLat, oc.latency)
		}
		if sched[i].Fresh && traced && oc.ok {
			queueWait = append(queueWait, oc.queueWait)
			exec = append(exec, oc.exec)
		}
		if !oc.ok || (!sched[i].Fresh && oc.body != outcomes[sched[i].Target].body) {
			m.failed++
		}
	}

	mismatches, counted, builds, err := checkFresh(sched, outcomes, &m.events)
	if err != nil {
		return nil, err
	}
	m.failed += mismatches
	addResultCounts(m.layers, counted)
	m.layers["netsim.build_ms"] = ms(median(builds))
	m.layers["service.submit_ms"] = ms(median(submit))
	m.layers["service.events_ms"] = ms(median(events))
	m.layers["service.artifact_ms"] = ms(median(artifact))
	m.layers["service.queue_wait_ms"] = ms(median(queueWait))
	m.layers["service.exec_ms"] = ms(median(exec))
	m.layers["service.dedupe_hits"] = float64(dedupes)
	m.layers["service.rejected_429"] = float64(rejected)
	m.inputs = map[string]any{
		"request":           serveTemplate,
		"clients":           serveClients,
		"repeat_share":      float64(repeats) / float64(max(n, 1)),
		"planned_repeat":    1 - 1.0/serveBlock,
		"repeat_op_p50_ms":  ms(median(repeatLat)),
		"fresh_op_p50_ms":   ms(median(freshLat)),
		"repeat_window":     serveRecent,
		"service":           "service.New with bcp-serve's default settings, driven in-process",
		"counted_fresh_ops": len(counted),
	}
	return m, nil
}

// checkFresh runs every fresh op's job directly — build and run with
// netsim, export with the sweep package as the service does — and
// counts results.json bodies that differ from the service's. It adds
// the completed fresh ops' simulator events to events and returns the
// results of the first serveCountedFresh fresh ops and the build-call
// times.
func checkFresh(sched []serveOp, outcomes []opOutcome, events *uint64) (int, []netsim.Result, []time.Duration, error) {
	var freshIdx []int
	for i, op := range sched {
		if op.Fresh {
			freshIdx = append(freshIdx, i)
		}
	}
	type direct struct {
		res   netsim.Result
		body  [sha256.Size]byte
		build time.Duration
		err   error
	}
	out := make([]direct, len(freshIdx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 { // one per core
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(freshIdx) {
					return
				}
				d := &out[k]
				d.res, d.body, d.build, d.err = runDirect(serveRequest(sched[freshIdx[k]]))
			}
		}()
	}
	wg.Wait()
	mismatches := 0
	var counted []netsim.Result
	builds := make([]time.Duration, 0, len(out))
	for k, d := range out {
		if d.err != nil {
			return 0, nil, nil, d.err
		}
		builds = append(builds, d.build)
		if k < serveCountedFresh {
			counted = append(counted, d.res)
		}
		if oc := outcomes[freshIdx[k]]; oc.ok {
			*events += d.res.Events
			if oc.body != d.body {
				mismatches++
			}
		}
	}
	return mismatches, counted, builds, nil
}

// runDirect compiles a run request the way the service does, runs its
// single job with netsim and hashes the sweep JSON export.
func runDirect(req service.RunRequest) (netsim.Result, [sha256.Size]byte, time.Duration, error) {
	var none [sha256.Size]byte
	doc := sweep.SpecDoc{
		Case: req.Case, Models: []string{req.Model}, Senders: []int{req.Senders},
		Bursts: []int{req.Burst}, RateBps: req.RateBps, DurationS: req.DurationS, Seed: req.Seed,
	}
	spec, err := doc.Spec()
	if err != nil {
		return netsim.Result{}, none, 0, err
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return netsim.Result{}, none, 0, err
	}
	if len(jobs) != 1 {
		return netsim.Result{}, none, 0, fmt.Errorf("request compiles to %d jobs, want 1", len(jobs))
	}
	t0 := time.Now()
	s, err := jobs[0].Config.Scenario()
	if err != nil {
		return netsim.Result{}, none, 0, err
	}
	build := time.Since(t0)
	res, err := netsim.RunScenario(s)
	if err != nil {
		return netsim.Result{}, none, 0, err
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, &sweep.Outcome{Jobs: jobs, Results: []netsim.Result{res}}); err != nil {
		return netsim.Result{}, none, 0, err
	}
	return res, sha256.Sum256(buf.Bytes()), build, nil
}

// serveClient issues one client's HTTP calls.
type serveClient struct {
	base string
	hc   *http.Client
}

// do runs one op: submit, follow the SSE stream to its terminal event,
// fetch results.json and, when traced, the job's timings. Any non-2xx
// answer, transport error or non-done terminal event fails the op.
func (c *serveClient) do(op string, req service.RunRequest, spans *spanLog) opOutcome {
	var oc opOutcome
	t0 := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		return oc
	}
	resp, err := c.hc.Post(c.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return oc
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	drainClose(resp)
	oc.rejected = resp.StatusCode == http.StatusTooManyRequests
	if err != nil || resp.StatusCode/100 != 2 {
		return oc
	}
	oc.deduped = st.Deduped
	t1 := time.Now()

	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return oc
	}
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	for terminal == "" && sc.Scan() {
		switch name, _ := strings.CutPrefix(sc.Text(), "event: "); name {
		case "done", "failed", "canceled":
			terminal = name
		}
	}
	drainClose(resp)
	if terminal != "done" || resp.StatusCode != http.StatusOK {
		return oc
	}
	t2 := time.Now()

	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/artifacts/results.json")
	if err != nil {
		return oc
	}
	results, err := io.ReadAll(resp.Body)
	drainClose(resp)
	if err != nil || resp.StatusCode != http.StatusOK {
		return oc
	}
	t3 := time.Now()
	oc.body = sha256.Sum256(results)
	oc.submit, oc.events, oc.artifact, oc.latency = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	oc.ok = true
	if spans == nil {
		return oc
	}

	spans.add(op, "service.op", "", t0, t3)
	spans.add(op, "service.submit", op+"/service.op", t0, t1)
	spans.add(op, "service.events", op+"/service.op", t1, t2)
	spans.add(op, "service.artifact", op+"/service.op", t2, t3)
	if oc.deduped {
		return oc
	}
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID)
	if err != nil {
		oc.ok = false
		return oc
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	drainClose(resp)
	tm := st.Timings
	if err != nil || tm == nil || tm.StartedAt == nil || tm.FinishedAt == nil {
		oc.ok = false
		return oc
	}
	oc.queueWait, oc.exec = tm.StartedAt.Sub(tm.SubmittedAt), tm.FinishedAt.Sub(*tm.StartedAt)
	spans.add(op, "service.queue_wait", op+"/service.events", tm.SubmittedAt, *tm.StartedAt)
	spans.add(op, "service.exec", op+"/service.events", *tm.StartedAt, *tm.FinishedAt)
	return oc
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only lets the handler finish
	resp.Body.Close()
}

// sweepStats reads the service's cell counters and cell-time histogram
// from /metrics into sweep.cache_hit_ratio and sweep.cell_ms.
func (c *serveClient) sweepStats(v map[string]float64) error {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return err
	}
	defer drainClose(resp)
	got := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			if x, err := strconv.ParseFloat(val, 64); err == nil {
				got[name] = x
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	simulated, cached := got["bulktx_cells_simulated_total"], got["bulktx_cells_cached_total"]
	if simulated+cached > 0 {
		v["sweep.cache_hit_ratio"] = cached / (simulated + cached)
	}
	if n := got["bulktx_cell_simulation_seconds_count"]; n > 0 {
		v["sweep.cell_ms"] = got["bulktx_cell_simulation_seconds_sum"] / n * 1000
	}
	return nil
}

// inProcessBase is the base URL requests carry; handlerTransport
// ignores the host.
const inProcessBase = "http://in-process"

// startService builds a service with bcp-serve's default settings and
// returns once GET /healthz answers, with the time that took.
func startService() (*service.Server, time.Duration, error) {
	start := time.Now()
	svc, err := service.New(service.Options{})
	if err != nil {
		return nil, 0, err
	}
	hc := &http.Client{Transport: handlerTransport{svc}}
	resp, err := hc.Get(inProcessBase + "/healthz")
	if err != nil {
		return nil, 0, err
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("/healthz answered %s", resp.Status)
	}
	return svc, time.Since(start), nil
}

// closeService drains a service's executors.
func closeService(svc *service.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return svc.Close(ctx)
}

// handlerTransport serves each request straight from an http.Handler:
// RoundTrip returns once the handler commits its status line, and the
// body streams through an in-memory pipe, so SSE behaves as over a
// connection. Closing the response body fails the handler's next write,
// as a dropped connection would.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sreq := *req
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	pr, pw := io.Pipe()
	w := &pipeWriter{pw: pw, header: http.Header{}, committed: make(chan struct{})}
	go func() {
		t.h.ServeHTTP(w, &sreq)
		w.WriteHeader(http.StatusOK) // a handler that wrote nothing answers 200
		pw.Close()
	}()
	<-w.committed
	return &http.Response{
		StatusCode: w.status, Status: http.StatusText(w.status),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: w.sent, Body: pr, Request: req,
	}, nil
}

// pipeWriter is the handler's side of handlerTransport.
type pipeWriter struct {
	pw        *io.PipeWriter
	header    http.Header
	once      sync.Once
	status    int
	sent      http.Header   // header as of WriteHeader
	committed chan struct{} // closed by the first WriteHeader
}

func (w *pipeWriter) Header() http.Header { return w.header }

func (w *pipeWriter) WriteHeader(code int) {
	w.once.Do(func() {
		w.status, w.sent = code, w.header.Clone()
		close(w.committed)
	})
}

func (w *pipeWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

// Flush is a no-op: every Write already reaches the reader.
func (w *pipeWriter) Flush() {}
